//! Static type checker for the dialect.
//!
//! Beyond ordinary Java-like checking, it enforces the two semantic rules
//! the paper's constructs introduce (Section 3):
//!
//! 1. `foreach` iterates over a 1-D `RectDomain` and its loop variable is an
//!    `int` point; iteration order must not matter, so inside a `foreach`
//!    body a *reduction variable* (an object of a class implementing
//!    `Reducinterface`) may only be updated through its own methods
//!    (self-updates) — its intermediate value may not otherwise be read,
//!    assigned, or passed around.
//! 2. `PipelinedLoop (p in dom; num_packets)` requires `dom` to be a 1-D
//!    `RectDomain` and `num_packets` an `int`; the loop variable is bound to
//!    a `RectDomain<1>` packet.
//!
//! The checker forbids variable shadowing and duplicate locals within a
//! method so that downstream passes can use one flat scope per method
//! (see [`crate::symbols::MethodScope`]).

use crate::ast::*;
use crate::error::{type_err, Diagnostic};
use crate::span::Span;
use crate::symbols::{method_key, MethodScope, SymbolTable};
use std::collections::HashMap;

/// A program that passed type checking, bundled with its symbol table.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    pub program: Program,
    pub symbols: SymbolTable,
}

/// Type-check a program.
pub fn check(program: Program) -> Result<TypedProgram, Diagnostic> {
    let mut ck = Checker::new(&program);
    ck.collect_globals()?;
    for class in &program.classes {
        for method in &class.methods {
            ck.check_method(class, method)?;
        }
    }
    let symbols = ck.symbols;
    Ok(TypedProgram { program, symbols })
}

struct Checker<'p> {
    program: &'p Program,
    symbols: SymbolTable,
}

/// Mutable checking context for one method body.
struct Ctx<'a> {
    class: &'a ClassDecl,
    method: &'a MethodDecl,
    /// Flat per-method scope being built (no shadowing allowed).
    scope: MethodScope,
    /// Names of live reduction-typed variables (locals/params/fields of
    /// reduction class type) for the foreach rule.
    foreach_depth: u32,
    loop_depth: u32,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Self {
        Checker {
            program,
            symbols: SymbolTable::default(),
        }
    }

    fn collect_globals(&mut self) -> Result<(), Diagnostic> {
        let mut seen_classes: HashMap<&str, Span> = HashMap::new();
        for c in &self.program.classes {
            if seen_classes.insert(&c.name, c.span).is_some() {
                return Err(type_err(c.span, format!("duplicate class `{}`", c.name)));
            }
            if c.is_reduction {
                self.symbols.reduction_classes.push(c.name.clone());
                // A reduction class must provide a combine method
                // `void reduce(Self other)` used to merge per-packet copies.
                let ok = c.methods.iter().any(|m| {
                    m.name == "reduce"
                        && m.ret == Type::Void
                        && m.params.len() == 1
                        && m.params[0].ty == Type::Class(c.name.clone())
                });
                if !ok {
                    return Err(type_err(
                        c.span,
                        format!(
                            "reduction class `{}` must define `void reduce({} other)`",
                            c.name, c.name
                        ),
                    ));
                }
            }
            let mut seen_fields: HashMap<&str, ()> = HashMap::new();
            for f in &c.fields {
                if seen_fields.insert(&f.name, ()).is_some() {
                    return Err(type_err(
                        f.span,
                        format!("duplicate field `{}` in class `{}`", f.name, c.name),
                    ));
                }
                self.check_type_exists(&f.ty, f.span)?;
            }
            let mut seen_methods: HashMap<&str, ()> = HashMap::new();
            for m in &c.methods {
                if seen_methods.insert(&m.name, ()).is_some() {
                    return Err(type_err(
                        m.span,
                        format!("duplicate method `{}` in class `{}`", m.name, c.name),
                    ));
                }
            }
        }
        let mut seen_ext: HashMap<&str, ()> = HashMap::new();
        for e in &self.program.externs {
            if seen_ext.insert(&e.name, ()).is_some() {
                return Err(type_err(e.span, format!("duplicate extern `{}`", e.name)));
            }
            self.check_type_exists(&e.ty, e.span)?;
            self.symbols.externs.insert(e.name.clone(), e.ty.clone());
        }
        Ok(())
    }

    fn check_type_exists(&self, ty: &Type, span: Span) -> Result<(), Diagnostic> {
        match ty {
            Type::Class(name) => {
                if self.program.class(name).is_none() {
                    return Err(type_err(span, format!("unknown class `{name}`")));
                }
                Ok(())
            }
            Type::Array(elem) => self.check_type_exists(elem, span),
            _ => Ok(()),
        }
    }

    fn check_method(&mut self, class: &ClassDecl, method: &MethodDecl) -> Result<(), Diagnostic> {
        let mut ctx = Ctx {
            class,
            method,
            scope: MethodScope::default(),
            foreach_depth: 0,
            loop_depth: 0,
        };
        for p in &method.params {
            self.check_type_exists(&p.ty, method.span)?;
            if ctx
                .scope
                .vars
                .insert(p.name.clone(), p.ty.clone())
                .is_some()
            {
                return Err(type_err(
                    method.span,
                    format!("duplicate parameter `{}`", p.name),
                ));
            }
        }
        self.check_block(&mut ctx, &method.body)?;
        if method.ret != Type::Void && can_complete(&method.body.stmts) {
            return Err(type_err(
                method.span,
                format!(
                    "method `{}::{}` can finish without returning a `{}`",
                    class.name, method.name, method.ret
                ),
            ));
        }
        self.symbols
            .method_scopes
            .insert(method_key(&class.name, &method.name), ctx.scope);
        Ok(())
    }

    fn declare(&self, ctx: &mut Ctx, name: &str, ty: Type, span: Span) -> Result<(), Diagnostic> {
        if ctx.scope.vars.contains_key(name)
            || ctx.class.field(name).is_some()
            || self.symbols.externs.contains_key(name)
        {
            return Err(type_err(
                span,
                format!("`{name}` shadows or duplicates an existing declaration (the dialect forbids shadowing)"),
            ));
        }
        ctx.scope.vars.insert(name.to_string(), ty);
        Ok(())
    }

    fn lookup(&self, ctx: &Ctx, name: &str, span: Span) -> Result<Type, Diagnostic> {
        if let Some(t) = ctx.scope.get(name) {
            return Ok(t.clone());
        }
        if let Some(f) = ctx.class.field(name) {
            return Ok(f.ty.clone());
        }
        if let Some(t) = self.symbols.externs.get(name) {
            return Ok(t.clone());
        }
        Err(type_err(span, format!("unknown variable `{name}`")))
    }

    fn check_block(&self, ctx: &mut Ctx, block: &Block) -> Result<(), Diagnostic> {
        for s in &block.stmts {
            self.check_stmt(ctx, s)?;
        }
        Ok(())
    }

    fn check_stmt(&self, ctx: &mut Ctx, stmt: &Stmt) -> Result<(), Diagnostic> {
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                self.check_type_exists(ty, stmt.span)?;
                if ty == &Type::Void {
                    return Err(type_err(stmt.span, "variables cannot have type void"));
                }
                if let Some(init) = init {
                    let it = self.infer(ctx, init)?;
                    self.require_assignable(ty, &it, init.span)?;
                }
                self.declare(ctx, name, ty.clone(), stmt.span)
            }
            StmtKind::Assign { target, op, value } => {
                let tt = self.infer_lvalue(ctx, target, stmt.span)?;
                let vt = self.infer(ctx, value)?;
                if *op != AssignOp::Set && !matches!(tt, Type::Int | Type::Double) {
                    return Err(type_err(
                        stmt.span,
                        format!("compound assignment requires a numeric target, got `{tt}`"),
                    ));
                }
                // Inside a foreach, reduction variables may not be reassigned
                // wholesale (only self-updates through their methods).
                if ctx.foreach_depth > 0 {
                    if let LValue::Var(name) = target {
                        if let Ok(Type::Class(c)) = self.lookup(ctx, name, stmt.span) {
                            if self.symbols.is_reduction_class(&c) {
                                return Err(type_err(
                                    stmt.span,
                                    format!(
                                        "reduction variable `{name}` may only be updated through its own methods inside foreach"
                                    ),
                                ));
                            }
                        }
                    }
                }
                self.require_assignable(&tt, &vt, value.span)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.require(ctx, cond, &Type::Bool)?;
                self.check_block(ctx, then_blk)?;
                if let Some(e) = else_blk {
                    self.check_block(ctx, e)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.require(ctx, cond, &Type::Bool)?;
                ctx.loop_depth += 1;
                let r = self.check_block(ctx, body);
                ctx.loop_depth -= 1;
                r
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.check_stmt(ctx, i)?;
                }
                if let Some(c) = cond {
                    self.require(ctx, c, &Type::Bool)?;
                }
                if let Some(s) = step {
                    self.check_stmt(ctx, s)?;
                }
                ctx.loop_depth += 1;
                let r = self.check_block(ctx, body);
                ctx.loop_depth -= 1;
                r
            }
            StmtKind::Foreach { var, domain, body } => {
                let dt = self.infer(ctx, domain)?;
                if !matches!(dt, Type::RectDomain(1)) {
                    return Err(type_err(
                        stmt.span,
                        format!("foreach expects a RectDomain<1>, got `{dt}`"),
                    ));
                }
                // Sibling foreach loops may reuse a loop variable (loop
                // fission produces exactly this shape); re-declaration is
                // fine as long as the type stays `int`.
                match ctx.scope.get(var) {
                    Some(Type::Int) => {}
                    Some(other) => {
                        return Err(type_err(
                            stmt.span,
                            format!("foreach variable `{var}` conflicts with existing `{other}` declaration"),
                        ))
                    }
                    None => self.declare(ctx, var, Type::Int, stmt.span)?,
                }
                ctx.foreach_depth += 1;
                ctx.loop_depth += 1;
                let r = self.check_block(ctx, body);
                ctx.foreach_depth -= 1;
                ctx.loop_depth -= 1;
                r
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                if ctx.foreach_depth > 0 || ctx.loop_depth > 0 {
                    return Err(type_err(
                        stmt.span,
                        "PipelinedLoop cannot be nested inside another loop",
                    ));
                }
                let dt = self.infer(ctx, domain)?;
                if !matches!(dt, Type::RectDomain(1)) {
                    return Err(type_err(
                        stmt.span,
                        format!("PipelinedLoop expects a RectDomain<1>, got `{dt}`"),
                    ));
                }
                self.require(ctx, num_packets, &Type::Int)?;
                self.declare(ctx, var, Type::RectDomain(1), stmt.span)?;
                self.check_block(ctx, body)
            }
            StmtKind::Return(value) => {
                let ret = &ctx.method.ret;
                match (value, ret) {
                    (None, Type::Void) => Ok(()),
                    (None, other) => Err(type_err(
                        stmt.span,
                        format!("missing return value of type `{other}`"),
                    )),
                    (Some(_), Type::Void) => {
                        Err(type_err(stmt.span, "void method cannot return a value"))
                    }
                    (Some(v), ret) => {
                        let vt = self.infer(ctx, v)?;
                        let ret = ret.clone();
                        self.require_assignable(&ret, &vt, v.span)
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.infer(ctx, e)?;
                Ok(())
            }
            StmtKind::Block(b) => self.check_block(ctx, b),
            StmtKind::Break | StmtKind::Continue => {
                if ctx.loop_depth == 0 {
                    Err(type_err(stmt.span, "break/continue outside a loop"))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn infer_lvalue(&self, ctx: &Ctx, lv: &LValue, span: Span) -> Result<Type, Diagnostic> {
        match lv {
            LValue::Var(name) => self.lookup(ctx, name, span),
            LValue::Field(base, field) => {
                let bt = self.infer(ctx, base)?;
                self.field_type(&bt, field, span)
            }
            LValue::Index(base, idx) => {
                self.require(ctx, idx, &Type::Int)?;
                let bt = self.infer(ctx, base)?;
                match bt {
                    Type::Array(elem) => Ok(*elem),
                    other => Err(type_err(
                        span,
                        format!("cannot index non-array type `{other}`"),
                    )),
                }
            }
        }
    }

    fn field_type(&self, base: &Type, field: &str, span: Span) -> Result<Type, Diagnostic> {
        match base {
            Type::Class(cname) => {
                let c = self
                    .program
                    .class(cname)
                    .ok_or_else(|| type_err(span, format!("unknown class `{cname}`")))?;
                c.field(field).map(|f| f.ty.clone()).ok_or_else(|| {
                    type_err(span, format!("class `{cname}` has no field `{field}`"))
                })
            }
            other => Err(type_err(
                span,
                format!("cannot access field `{field}` on non-class type `{other}`"),
            )),
        }
    }

    fn require(&self, ctx: &Ctx, e: &Expr, want: &Type) -> Result<(), Diagnostic> {
        let t = self.infer(ctx, e)?;
        self.require_assignable(want, &t, e.span)
    }

    /// `int → double` widening is implicit; everything else must match.
    fn require_assignable(&self, want: &Type, got: &Type, span: Span) -> Result<(), Diagnostic> {
        let ok = want == got || (want == &Type::Double && got == &Type::Int);
        if ok {
            Ok(())
        } else {
            Err(type_err(
                span,
                format!("type mismatch: expected `{want}`, got `{got}`"),
            ))
        }
    }

    fn numeric_join(&self, a: &Type, b: &Type, span: Span) -> Result<Type, Diagnostic> {
        match (a, b) {
            (Type::Int, Type::Int) => Ok(Type::Int),
            (Type::Double, Type::Double)
            | (Type::Int, Type::Double)
            | (Type::Double, Type::Int) => Ok(Type::Double),
            _ => Err(type_err(
                span,
                format!("numeric operation on non-numeric types `{a}` and `{b}`"),
            )),
        }
    }

    fn infer(&self, ctx: &Ctx, e: &Expr) -> Result<Type, Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::DoubleLit(_) => Ok(Type::Double),
            ExprKind::BoolLit(_) => Ok(Type::Bool),
            ExprKind::Null => Err(type_err(
                e.span,
                "`null` may only be compared, not used as a value (dialect restriction)",
            )),
            ExprKind::Var(name) => {
                let t = self.lookup(ctx, name, e.span)?;
                // foreach rule: a reduction variable may not be read as a
                // plain value inside a foreach (only as a call receiver,
                // which Call handles without going through Var inference).
                if ctx.foreach_depth > 0 {
                    if let Type::Class(c) = &t {
                        if self.symbols.is_reduction_class(c) {
                            return Err(type_err(
                                e.span,
                                format!(
                                    "reduction variable `{name}` may only appear as a method-call receiver inside foreach"
                                ),
                            ));
                        }
                    }
                }
                Ok(t)
            }
            ExprKind::This => Ok(Type::Class(ctx.class.name.clone())),
            ExprKind::Field(base, field) => {
                let bt = self.infer(ctx, base)?;
                self.field_type(&bt, field, e.span)
            }
            ExprKind::Index(base, idx) => {
                self.require(ctx, idx, &Type::Int)?;
                let bt = self.infer(ctx, base)?;
                match bt {
                    Type::Array(elem) => Ok(*elem),
                    other => Err(type_err(
                        e.span,
                        format!("cannot index non-array type `{other}`"),
                    )),
                }
            }
            ExprKind::Unary(op, inner) => {
                let t = self.infer(ctx, inner)?;
                match op {
                    UnOp::Neg => self.numeric_join(&t, &Type::Int, e.span).map(|_| t),
                    UnOp::Not => {
                        self.require_assignable(&Type::Bool, &t, e.span)?;
                        Ok(Type::Bool)
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.infer(ctx, l)?;
                let rt = self.infer(ctx, r)?;
                if op.is_arith() {
                    self.numeric_join(&lt, &rt, e.span)
                } else if op.is_cmp() {
                    if matches!(op, BinOp::Eq | BinOp::Ne) && lt == rt {
                        // equality also allowed on bools and same classes
                        Ok(Type::Bool)
                    } else {
                        self.numeric_join(&lt, &rt, e.span)?;
                        Ok(Type::Bool)
                    }
                } else {
                    self.require_assignable(&Type::Bool, &lt, l.span)?;
                    self.require_assignable(&Type::Bool, &rt, r.span)?;
                    Ok(Type::Bool)
                }
            }
            ExprKind::Ternary(c, a, b) => {
                self.require(ctx, c, &Type::Bool)?;
                let at = self.infer(ctx, a)?;
                let bt = self.infer(ctx, b)?;
                if at == bt {
                    Ok(at)
                } else {
                    self.numeric_join(&at, &bt, e.span)
                }
            }
            ExprKind::Call { recv, method, args } => self.infer_call(ctx, e, recv, method, args),
            ExprKind::New(cname) => {
                if self.program.class(cname).is_none() {
                    return Err(type_err(e.span, format!("unknown class `{cname}`")));
                }
                Ok(Type::Class(cname.clone()))
            }
            ExprKind::NewArray(elem, len) => {
                self.check_type_exists(elem, e.span)?;
                self.require(ctx, len, &Type::Int)?;
                Ok(Type::array_of(elem.clone()))
            }
            ExprKind::DomainLit(lo, hi) => {
                self.require(ctx, lo, &Type::Int)?;
                self.require(ctx, hi, &Type::Int)?;
                Ok(Type::RectDomain(1))
            }
        }
    }

    fn infer_call(
        &self,
        ctx: &Ctx,
        e: &Expr,
        recv: &Option<Box<Expr>>,
        method: &str,
        args: &[Expr],
    ) -> Result<Type, Diagnostic> {
        let arg_types: Vec<Type> = args
            .iter()
            .map(|a| self.infer(ctx, a))
            .collect::<Result<_, _>>()?;
        match recv {
            None => {
                if is_builtin(method) {
                    return self.builtin_type(method, &arg_types, e.span);
                }
                // method of the enclosing class
                let m = ctx
                    .class
                    .methods
                    .iter()
                    .find(|m| m.name == *method)
                    .ok_or_else(|| {
                        type_err(
                            e.span,
                            format!(
                                "unknown function or method `{method}` in class `{}`",
                                ctx.class.name
                            ),
                        )
                    })?;
                self.check_call_args(m, &arg_types, e.span)?;
                Ok(m.ret.clone())
            }
            Some(r) => {
                // Receiver may be a reduction variable — that is the one
                // legal way to touch it inside a foreach, so bypass the
                // Var-read rule by inferring its type structurally.
                let rt = match &r.kind {
                    ExprKind::Var(name) => self.lookup(ctx, name, r.span)?,
                    _ => self.infer(ctx, r)?,
                };
                match &rt {
                    Type::RectDomain(1) => {
                        if DOMAIN_METHODS.contains(&method) {
                            if !arg_types.is_empty() {
                                return Err(type_err(
                                    e.span,
                                    format!("`{method}` takes no arguments"),
                                ));
                            }
                            Ok(Type::Int)
                        } else {
                            Err(type_err(
                                e.span,
                                format!("RectDomain has no method `{method}`"),
                            ))
                        }
                    }
                    Type::Array(_) => {
                        if ARRAY_METHODS.contains(&method) {
                            if !arg_types.is_empty() {
                                return Err(type_err(
                                    e.span,
                                    format!("`{method}` takes no arguments"),
                                ));
                            }
                            Ok(Type::Int)
                        } else {
                            Err(type_err(
                                e.span,
                                format!("arrays have no method `{method}`"),
                            ))
                        }
                    }
                    Type::Class(cname) => {
                        let m = self.program.method(cname, method).ok_or_else(|| {
                            type_err(e.span, format!("class `{cname}` has no method `{method}`"))
                        })?;
                        self.check_call_args(m, &arg_types, e.span)?;
                        Ok(m.ret.clone())
                    }
                    other => Err(type_err(
                        e.span,
                        format!("cannot call method `{method}` on type `{other}`"),
                    )),
                }
            }
        }
    }

    fn check_call_args(
        &self,
        m: &MethodDecl,
        arg_types: &[Type],
        span: Span,
    ) -> Result<(), Diagnostic> {
        if m.params.len() != arg_types.len() {
            return Err(type_err(
                span,
                format!(
                    "method `{}` expects {} argument(s), got {}",
                    m.name,
                    m.params.len(),
                    arg_types.len()
                ),
            ));
        }
        for (p, a) in m.params.iter().zip(arg_types) {
            self.require_assignable(&p.ty, a, span)?;
        }
        Ok(())
    }

    fn builtin_type(&self, name: &str, args: &[Type], span: Span) -> Result<Type, Diagnostic> {
        let numeric = |t: &Type| matches!(t, Type::Int | Type::Double);
        match name {
            "sqrt" | "floor" | "ceil" | "exp" | "log" => {
                if args.len() == 1 && numeric(&args[0]) {
                    Ok(Type::Double)
                } else {
                    Err(type_err(
                        span,
                        format!("`{name}` expects one numeric argument"),
                    ))
                }
            }
            "abs" => {
                if args.len() == 1 && numeric(&args[0]) {
                    Ok(args[0].clone())
                } else {
                    Err(type_err(span, "`abs` expects one numeric argument"))
                }
            }
            "min" | "max" => {
                if args.len() == 2 && numeric(&args[0]) && numeric(&args[1]) {
                    self.numeric_join(&args[0], &args[1], span)
                } else {
                    Err(type_err(
                        span,
                        format!("`{name}` expects two numeric arguments"),
                    ))
                }
            }
            "pow" => {
                if args.len() == 2 && numeric(&args[0]) && numeric(&args[1]) {
                    Ok(Type::Double)
                } else {
                    Err(type_err(span, "`pow` expects two numeric arguments"))
                }
            }
            "toInt" => {
                if args.len() == 1 && numeric(&args[0]) {
                    Ok(Type::Int)
                } else {
                    Err(type_err(span, "`toInt` expects one numeric argument"))
                }
            }
            "toDouble" => {
                if args.len() == 1 && numeric(&args[0]) {
                    Ok(Type::Double)
                } else {
                    Err(type_err(span, "`toDouble` expects one numeric argument"))
                }
            }
            "print" => {
                if args.len() == 1 {
                    Ok(Type::Void)
                } else {
                    Err(type_err(span, "`print` expects one argument"))
                }
            }
            _ => Err(type_err(span, format!("unknown builtin `{name}`"))),
        }
    }
}

/// Can `stmts` run to their end without returning? Java's rule, as far as
/// the dialect needs it: a `return` ends a block, an `if` ends it when
/// both branches do, and a `while (true)` or condition-less `for` without
/// a `break` never finishes. Any other statement can finish.
fn can_complete(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| match &s.kind {
        StmtKind::Return(_) => false,
        StmtKind::Block(b) => can_complete(&b.stmts),
        StmtKind::If {
            then_blk,
            else_blk: Some(e),
            ..
        } => can_complete(&then_blk.stmts) || can_complete(&e.stmts),
        StmtKind::While { cond, body } => {
            !matches!(cond.kind, ExprKind::BoolLit(true)) || breaks(&body.stmts)
        }
        StmtKind::For { cond, body, .. } => {
            !matches!(
                &cond,
                None | Some(Expr {
                    kind: ExprKind::BoolLit(true),
                    ..
                })
            ) || breaks(&body.stmts)
        }
        _ => true,
    })
}

/// Does a `break` in `stmts` leave the loop they are the body of (not a
/// nested one)?
fn breaks(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        StmtKind::Break => true,
        StmtKind::Block(b) => breaks(&b.stmts),
        StmtKind::If {
            then_blk, else_blk, ..
        } => breaks(&then_blk.stmts) || else_blk.as_ref().is_some_and(|e| breaks(&e.stmts)),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TypedProgram, Diagnostic> {
        check(parse(src).unwrap())
    }

    #[test]
    fn accepts_well_typed_program() {
        let src = r#"
            extern int n;
            class Point { double x; double y; }
            class A {
                double dist(Point p) { return sqrt(p.x * p.x + p.y * p.y); }
                void main() {
                    RectDomain<1> d = [0 : n - 1];
                    foreach (i in d) {
                        Point p = new Point();
                        p.x = toDouble(i);
                        double r = dist(p);
                    }
                }
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn rejects_unknown_variable() {
        let err = check_src("class A { void f() { x = 1; } }").unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = check_src("class A { void f() { int x = true; } }").unwrap_err();
        assert!(err.message.contains("type mismatch"));
    }

    #[test]
    fn int_widens_to_double() {
        assert!(check_src("class A { void f() { double x = 1; } }").is_ok());
    }

    #[test]
    fn double_does_not_narrow_to_int() {
        assert!(check_src("class A { void f() { int x = 1.5; } }").is_err());
    }

    #[test]
    fn rejects_shadowing() {
        let err =
            check_src("class A { void f() { int x = 1; if (x > 0) { int x = 2; } } }").unwrap_err();
        assert!(err.message.contains("shadows"));
    }

    #[test]
    fn reduction_class_needs_reduce_method() {
        let err = check_src("class R implements Reducinterface { int v; }").unwrap_err();
        assert!(err.message.contains("reduce"));
    }

    #[test]
    fn reduction_class_with_reduce_ok() {
        let src = r#"
            class R implements Reducinterface {
                int v;
                void reduce(R other) { v = v + other.v; }
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn reduction_var_not_readable_in_foreach() {
        let src = r#"
            class R implements Reducinterface {
                int v;
                void reduce(R other) { v = v + other.v; }
                void add(int x) { v = v + x; }
            }
            class A {
                void main() {
                    R acc = new R();
                    RectDomain<1> d = [0 : 9];
                    foreach (i in d) {
                        R alias = acc;
                    }
                }
            }
        "#;
        let err = check_src(src).unwrap_err();
        assert!(err.message.contains("reduction variable"));
    }

    #[test]
    fn reduction_var_self_update_ok_in_foreach() {
        let src = r#"
            class R implements Reducinterface {
                int v;
                void reduce(R other) { v = v + other.v; }
                void add(int x) { v = v + x; }
            }
            class A {
                void main() {
                    R acc = new R();
                    RectDomain<1> d = [0 : 9];
                    foreach (i in d) {
                        acc.add(i);
                    }
                }
            }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn foreach_requires_domain() {
        let err = check_src("class A { void f() { foreach (i in 5) { } } }").unwrap_err();
        assert!(err.message.contains("RectDomain"));
    }

    #[test]
    fn pipelined_loop_cannot_nest_in_loop() {
        let src = r#"
            class A { void main() {
                RectDomain<1> d = [0 : 9];
                while (true) {
                    PipelinedLoop (p in d; 4) { }
                }
            } }
        "#;
        let err = check_src(src).unwrap_err();
        assert!(err.message.contains("nested"));
    }

    #[test]
    fn domain_methods_are_int() {
        let src = r#"
            class A { void f() {
                RectDomain<1> d = [0 : 9];
                int a = d.lo();
                int b = d.hi();
                int c = d.size();
            } }
        "#;
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn array_length_is_int() {
        let src = "class A { void f(double[] xs) { int n = xs.length(); } }";
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn break_outside_loop_rejected() {
        assert!(check_src("class A { void f() { break; } }").is_err());
    }

    #[test]
    fn method_call_arity_checked() {
        let src = r#"
            class A {
                int g(int x) { return x; }
                void f() { int y = g(1, 2); }
            }
        "#;
        let err = check_src(src).unwrap_err();
        assert!(err.message.contains("argument"));
    }

    #[test]
    fn non_void_methods_must_return_on_every_path() {
        let err = check_src("class A { int f(int x) { if (x > 0) { return 1; } } }").unwrap_err();
        assert!(err.message.contains("without returning"), "{}", err.message);
        assert!(check_src("class A { int f() { while (true) { break; } } }").is_err());
        for ok in [
            "class A { int f(int x) { if (x > 0) { return 1; } else { return 2; } } }",
            "class A { int f() { while (true) { return 1; } } }",
            "class A { int f() { for (;;) { int y = 1; } } }",
            "class A { int f() { { return 3; } } }",
            "class A { void f() { } }",
        ] {
            assert!(check_src(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn return_type_checked() {
        assert!(check_src("class A { int f() { return true; } }").is_err());
        assert!(check_src("class A { int f() { return 1; } }").is_ok());
        assert!(check_src("class A { void f() { return 1; } }").is_err());
    }
}
