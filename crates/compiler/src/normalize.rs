//! Normalization: locate the `PipelinedLoop`, split its body into *atomic
//! units* separated by candidate filter boundaries, and perform **loop
//! fission** so that no candidate boundary remains inside a `foreach`
//! (Section 4.1 of the paper).
//!
//! Candidate boundaries are:
//! 1. start and end of a `foreach` loop,
//! 2. a conditional statement (inside or outside a `foreach`),
//! 3. start and end of a statement-level function call within a `foreach`.
//!
//! Fission splits `foreach (c in d) { A; if (p) { B }; g(c); C }` into
//! `foreach{A}`, a [`UnitKind::CondForeach`] for the conditional, a
//! `foreach{g(c)}` call unit, and `foreach{C}` — introducing **scalar
//! expansion** (per-iteration locals that cross a fission cut become arrays
//! indexed by `c - d.lo()`).
//!
//! The rewritten program is re-type-checked, so it remains runnable by the
//! sequential interpreter; fission correctness is testable by comparing the
//! two interpreter runs.

use crate::error::{CompileError, CompileResult};
use cgp_lang::ast::*;
use cgp_lang::span::Span;
use cgp_lang::types::{check, TypedProgram};

/// Kind of an atomic unit, and hence of the boundaries around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Arbitrary non-`foreach` statements (allocations, reductions merges,
    /// whole conditionals outside `foreach`, non-foreach loops).
    Straight,
    /// A fissioned `foreach` with a boundary-free body.
    Foreach,
    /// `foreach (v in d) { if (cond) { then } }` — carries an *internal*
    /// candidate boundary between the condition evaluation and the guarded
    /// body (the paper's "conditional inside a foreach"): cutting there
    /// yields an upstream filter that forwards only the passing elements.
    CondForeach,
}

/// One atomic unit of the pipelined loop body.
#[derive(Debug, Clone)]
pub struct AtomicUnit {
    pub kind: UnitKind,
    /// The statements of this unit. For `Foreach`/`CondForeach` this is a
    /// single `foreach` statement.
    pub stmts: Vec<Stmt>,
    /// Human-readable label for reports (`alloc`, `extract`, `cond#7`, ...).
    pub label: String,
}

impl AtomicUnit {
    /// For CondForeach: (loop var, domain, condition, guarded body).
    pub fn cond_parts(&self) -> Option<(&str, &Expr, &Expr, &Block)> {
        if self.kind != UnitKind::CondForeach {
            return None;
        }
        let StmtKind::Foreach { var, domain, body } = &self.stmts[0].kind else {
            return None;
        };
        let StmtKind::If { cond, then_blk, .. } = &body.stmts[0].kind else {
            return None;
        };
        Some((var, domain, cond, then_blk))
    }
}

/// The normalized pipelined computation.
#[derive(Debug, Clone)]
pub struct NormalizedPipeline {
    /// The rewritten, re-type-checked program (fissioned main body).
    pub typed: TypedProgram,
    /// Class containing `main`.
    pub class: String,
    /// Packet loop variable (a `RectDomain<1>` per packet).
    pub pkt_var: String,
    /// Domain expression of the `PipelinedLoop`.
    pub domain: Expr,
    /// Packet-count expression.
    pub num_packets: Expr,
    /// Statements before the loop (replicated across filters at init).
    pub prologue: Vec<Stmt>,
    /// The atomic units of the loop body, in order.
    pub units: Vec<AtomicUnit>,
    /// Statements after the loop (run at the destination filter).
    pub epilogue: Vec<Stmt>,
    /// Scalar-expanded locals: (original name, array name, element type).
    pub expanded: Vec<(String, String, Type)>,
}

impl NormalizedPipeline {
    /// All unit statements flattened, in program order (the fissioned loop
    /// body).
    pub fn body_stmts(&self) -> Vec<Stmt> {
        self.units
            .iter()
            .flat_map(|u| u.stmts.iter().cloned())
            .collect()
    }
}

/// Normalize the unique `PipelinedLoop` found in `main`.
pub fn normalize(tp: &TypedProgram) -> CompileResult<NormalizedPipeline> {
    let (class, method) = tp
        .program
        .main()
        .ok_or_else(|| CompileError::new("program has no `main` method"))?;
    let class_name = class.name.clone();
    let body = &method.body;

    // Split main's body into prologue / PipelinedLoop / epilogue.
    let mut pipe_idx = None;
    for (i, s) in body.stmts.iter().enumerate() {
        if matches!(s.kind, StmtKind::Pipelined { .. }) {
            if pipe_idx.is_some() {
                return Err(CompileError::at(
                    s.span,
                    "multiple PipelinedLoop statements; exactly one is supported",
                ));
            }
            pipe_idx = Some(i);
        }
    }
    let pipe_idx = pipe_idx.ok_or_else(|| {
        CompileError::new("main contains no PipelinedLoop — nothing to decompose")
    })?;
    let prologue: Vec<Stmt> = body.stmts[..pipe_idx].to_vec();
    let epilogue: Vec<Stmt> = body.stmts[pipe_idx + 1..].to_vec();
    let StmtKind::Pipelined {
        var,
        domain,
        num_packets,
        body: loop_body,
    } = body.stmts[pipe_idx].kind.clone()
    else {
        unreachable!("pipe_idx points at a Pipelined stmt");
    };

    let mut ids = NodeIdGen::above(&tp.program);
    let mut fission = Fission {
        ids: &mut ids,
        expanded: Vec::new(),
        alloc_stmts: Vec::new(),
    };
    let units = fission.split_body(&loop_body.stmts)?;
    let expanded = fission.expanded.clone();

    // Rebuild the program with the fissioned body so everything downstream
    // (analyses, interpreter-backed filters) sees one consistent AST.
    let new_body: Vec<Stmt> = units.iter().flat_map(|u| u.stmts.iter().cloned()).collect();
    let new_pipelined = Stmt::new(
        ids.fresh(),
        Span::synthetic(),
        StmtKind::Pipelined {
            var: var.clone(),
            domain: domain.clone(),
            num_packets: num_packets.clone(),
            body: Block::new(new_body),
        },
    );
    let mut new_main_stmts = prologue.clone();
    new_main_stmts.push(new_pipelined);
    new_main_stmts.extend(epilogue.iter().cloned());

    let mut program = tp.program.clone();
    {
        let c = program
            .classes
            .iter_mut()
            .find(|c| c.name == class_name)
            .expect("class exists");
        let m = c
            .methods
            .iter_mut()
            .find(|m| m.name == "main")
            .expect("main exists");
        m.body = Block::new(new_main_stmts);
    }
    let typed = check(program).map_err(|d| {
        CompileError::new(format!(
            "internal: fissioned program failed type check: {d}"
        ))
    })?;

    Ok(NormalizedPipeline {
        typed,
        class: class_name,
        pkt_var: var,
        domain,
        num_packets,
        prologue,
        units,
        epilogue,
        expanded,
    })
}

// ---------------------------------------------------------------------------

struct Fission<'a> {
    ids: &'a mut NodeIdGen,
    /// (original, array name, element type)
    expanded: Vec<(String, String, Type)>,
    alloc_stmts: Vec<Stmt>,
}

/// Shape of one top-level group inside a foreach body.
enum Group {
    Run(Vec<Stmt>),
    Cond(Stmt),
    Call(Stmt),
}

impl Fission<'_> {
    /// Split the pipelined-loop body into atomic units.
    fn split_body(&mut self, stmts: &[Stmt]) -> CompileResult<Vec<AtomicUnit>> {
        let mut units: Vec<AtomicUnit> = Vec::new();
        let mut run: Vec<Stmt> = Vec::new();
        let flush = |run: &mut Vec<Stmt>, units: &mut Vec<AtomicUnit>| {
            if !run.is_empty() {
                units.push(AtomicUnit {
                    kind: UnitKind::Straight,
                    stmts: std::mem::take(run),
                    label: format!("straight#{}", units.len()),
                });
            }
        };
        for s in stmts {
            match &s.kind {
                StmtKind::Foreach { .. } => {
                    flush(&mut run, &mut units);
                    let fissioned = self.fission_foreach(s)?;
                    if !self.alloc_stmts.is_empty() {
                        units.push(AtomicUnit {
                            kind: UnitKind::Straight,
                            stmts: std::mem::take(&mut self.alloc_stmts),
                            label: format!("alloc#{}", units.len()),
                        });
                    }
                    units.extend(fissioned);
                }
                StmtKind::If { .. } => {
                    // A conditional outside a foreach is itself a candidate
                    // boundary: isolate it so cuts exist before and after.
                    flush(&mut run, &mut units);
                    units.push(AtomicUnit {
                        kind: UnitKind::Straight,
                        stmts: vec![s.clone()],
                        label: format!("cond{}", s.id),
                    });
                }
                StmtKind::Pipelined { .. } => {
                    return Err(CompileError::at(
                        s.span,
                        "nested PipelinedLoop is not supported",
                    ));
                }
                _ => run.push(s.clone()),
            }
        }
        flush(&mut run, &mut units);
        if units.is_empty() {
            return Err(CompileError::new("PipelinedLoop body is empty"));
        }
        Ok(units)
    }

    /// Fission one foreach into units; fills `self.alloc_stmts` with the
    /// scalar-expansion allocations that must precede them.
    fn fission_foreach(&mut self, stmt: &Stmt) -> CompileResult<Vec<AtomicUnit>> {
        let StmtKind::Foreach { var, domain, body } = &stmt.kind else {
            unreachable!("fission_foreach on non-foreach");
        };

        // Partition the body into groups at conditionals and call statements.
        let mut groups: Vec<Group> = Vec::new();
        let mut run: Vec<Stmt> = Vec::new();
        for s in &body.stmts {
            match &s.kind {
                StmtKind::If { .. } => {
                    if !run.is_empty() {
                        groups.push(Group::Run(std::mem::take(&mut run)));
                    }
                    groups.push(Group::Cond(s.clone()));
                }
                StmtKind::Expr(e) if matches!(e.kind, ExprKind::Call { .. }) => {
                    if !run.is_empty() {
                        groups.push(Group::Run(std::mem::take(&mut run)));
                    }
                    groups.push(Group::Call(s.clone()));
                }
                _ => run.push(s.clone()),
            }
        }
        if !run.is_empty() {
            groups.push(Group::Run(run));
        }

        if groups.len() <= 1 {
            // No internal boundaries except possibly a lone conditional.
            return Ok(vec![self.make_unit(var, domain, groups.pop(), stmt)?]);
        }

        // Scalar expansion: find names written in one group and read in a
        // later group; they become arrays indexed by `var - domain.lo()`.
        let mut to_expand: Vec<String> = Vec::new();
        let group_stmts: Vec<Vec<&Stmt>> = groups
            .iter()
            .map(|g| match g {
                Group::Run(ss) => ss.iter().collect(),
                Group::Cond(s) | Group::Call(s) => vec![s],
            })
            .collect();
        for i in 0..group_stmts.len() {
            let writes = collect_writes(&group_stmts[i]);
            for later in &group_stmts[i + 1..] {
                let reads = collect_reads(later);
                for w in &writes {
                    if w != var && reads.contains(w) && !to_expand.contains(w) {
                        to_expand.push(w.clone());
                    }
                }
            }
        }

        // Determine element types for expanded names from their VarDecls.
        let mut expansions: Vec<(String, String, Type)> = Vec::new();
        for name in &to_expand {
            let mut ty = None;
            for g in &group_stmts {
                for s in g {
                    find_decl_type(s, name, &mut ty);
                }
            }
            let ty = ty.ok_or_else(|| {
                CompileError::at(
                    stmt.span,
                    format!(
                        "cannot fission foreach: `{name}` crosses a fission cut but is declared outside the loop body (would need order-dependent semantics)"
                    ),
                )
            })?;
            let arr = format!("{name}__x");
            expansions.push((name.clone(), arr, ty));
        }

        // Allocation statements: `T[] name__x = new T[domain.size()];`
        for (_, arr, ty) in &expansions {
            let size = Expr::new(
                Span::synthetic(),
                ExprKind::Call {
                    recv: Some(Box::new(domain.clone())),
                    method: "size".into(),
                    args: vec![],
                },
            );
            self.alloc_stmts.push(Stmt::new(
                self.ids.fresh(),
                Span::synthetic(),
                StmtKind::VarDecl {
                    name: arr.clone(),
                    ty: Type::array_of(ty.clone()),
                    init: Some(Expr::new(
                        Span::synthetic(),
                        ExprKind::NewArray(ty.clone(), Box::new(size)),
                    )),
                },
            ));
        }
        self.expanded.extend(expansions.iter().cloned());

        // Index expression `var - domain.lo()`.
        let idx = Expr::new(
            Span::synthetic(),
            ExprKind::Binary(
                BinOp::Sub,
                Box::new(Expr::new(Span::synthetic(), ExprKind::Var(var.clone()))),
                Box::new(Expr::new(
                    Span::synthetic(),
                    ExprKind::Call {
                        recv: Some(Box::new(domain.clone())),
                        method: "lo".into(),
                        args: vec![],
                    },
                )),
            ),
        );

        // Rewrite groups and wrap each in its own foreach.
        let rename: Vec<(String, String)> = expansions
            .iter()
            .map(|(orig, arr, _)| (orig.clone(), arr.clone()))
            .collect();
        let mut units = Vec::new();
        for g in groups {
            let g = self.rewrite_group(g, &rename, &idx)?;
            units.push(self.make_unit(var, domain, Some(g), stmt)?);
        }
        Ok(units)
    }

    fn make_unit(
        &mut self,
        var: &str,
        domain: &Expr,
        group: Option<Group>,
        orig: &Stmt,
    ) -> CompileResult<AtomicUnit> {
        let (kind, body_stmts, label) = match group {
            None => (UnitKind::Foreach, Vec::new(), "empty".to_string()),
            Some(Group::Run(ss)) => (UnitKind::Foreach, ss, format!("loop{}", orig.id)),
            Some(Group::Cond(s)) => {
                // `if (cond) { then }` with no else → filtering unit.
                let kind = match &s.kind {
                    StmtKind::If { else_blk: None, .. } => UnitKind::CondForeach,
                    _ => UnitKind::Foreach,
                };
                (kind, vec![s], format!("cond{}", orig.id))
            }
            Some(Group::Call(s)) => (UnitKind::Foreach, vec![s], format!("call{}", orig.id)),
        };
        let fe = Stmt::new(
            self.ids.fresh(),
            Span::synthetic(),
            StmtKind::Foreach {
                var: var.to_string(),
                domain: domain.clone(),
                body: Block::new(body_stmts),
            },
        );
        Ok(AtomicUnit {
            kind,
            stmts: vec![fe],
            label,
        })
    }

    fn rewrite_group(
        &mut self,
        g: Group,
        rename: &[(String, String)],
        idx: &Expr,
    ) -> CompileResult<Group> {
        let rw = |s: &Stmt, ids: &mut NodeIdGen| rewrite_stmt(s, rename, idx, ids);
        Ok(match g {
            Group::Run(ss) => Group::Run(ss.iter().map(|s| rw(s, self.ids)).collect()),
            Group::Cond(s) => Group::Cond(rw(&s, self.ids)),
            Group::Call(s) => Group::Call(rw(&s, self.ids)),
        })
    }
}

// ---- name-level read/write collection -------------------------------------

fn collect_writes(stmts: &[&Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        walk_stmt(s, &mut |st| {
            match &st.kind {
                StmtKind::VarDecl { name, .. } => out.push(name.clone()),
                // Writes through fields/indexes mutate shared heap
                // objects; the *binding* is what scalar expansion cares
                // about, and field writes only matter if the binding
                // itself crosses, which the read side catches.
                StmtKind::Assign {
                    target: LValue::Var(n),
                    ..
                } => out.push(n.clone()),
                _ => {}
            }
        });
    }
    out.sort();
    out.dedup();
    out
}

fn collect_reads(stmts: &[&Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        walk_stmt(s, &mut |st| {
            each_expr_in_stmt(st, &mut |e| {
                collect_var_reads(e, &mut out);
            });
            // Field/index assignment targets read their base binding.
            if let StmtKind::Assign { target, .. } = &st.kind {
                match target {
                    LValue::Field(b, _) | LValue::Index(b, _) => collect_var_reads(b, &mut out),
                    LValue::Var(_) => {}
                }
            }
        });
    }
    out.sort();
    out.dedup();
    out
}

fn collect_var_reads(e: &Expr, out: &mut Vec<String>) {
    walk_expr(e, &mut |x| {
        if let ExprKind::Var(n) = &x.kind {
            out.push(n.clone());
        }
    });
}

fn find_decl_type(s: &Stmt, name: &str, ty: &mut Option<Type>) {
    walk_stmt(s, &mut |st| {
        if let StmtKind::VarDecl { name: n, ty: t, .. } = &st.kind {
            if n == name && ty.is_none() {
                *ty = Some(t.clone());
            }
        }
    });
}

/// Depth-first statement walk (including nested blocks and loop bodies).
fn walk_stmt(s: &Stmt, f: &mut impl FnMut(&Stmt)) {
    s.visit(f);
}

/// Apply `f` to every expression directly contained in `s` (not recursing
/// into nested statements — callers use `walk_stmt` for that).
fn each_expr_in_stmt(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match &s.kind {
        StmtKind::VarDecl { init, .. } => {
            if let Some(e) = init {
                f(e);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            f(value);
            match target {
                LValue::Field(b, _) => f(b),
                LValue::Index(b, i) => {
                    f(b);
                    f(i);
                }
                LValue::Var(_) => {}
            }
        }
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::While { cond, .. } => f(cond),
        StmtKind::For { cond, .. } => {
            if let Some(c) = cond {
                f(c);
            }
        }
        StmtKind::Foreach { domain, .. } => f(domain),
        StmtKind::Pipelined {
            domain,
            num_packets,
            ..
        } => {
            f(domain);
            f(num_packets);
        }
        StmtKind::Return(v) => {
            if let Some(e) = v {
                f(e);
            }
        }
        StmtKind::Expr(e) => f(e),
        StmtKind::Block(_) | StmtKind::Break | StmtKind::Continue => {}
    }
}

fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Field(b, _) => walk_expr(b, f),
        ExprKind::Index(b, i) => {
            walk_expr(b, f);
            walk_expr(i, f);
        }
        ExprKind::Unary(_, x) => walk_expr(x, f),
        ExprKind::Binary(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        ExprKind::Ternary(c, a, b) => {
            walk_expr(c, f);
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Call { recv, args, .. } => {
            if let Some(r) = recv {
                walk_expr(r, f);
            }
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::NewArray(_, len) => walk_expr(len, f),
        ExprKind::DomainLit(lo, hi) => {
            walk_expr(lo, f);
            walk_expr(hi, f);
        }
        _ => {}
    }
}

// ---- rewriting for scalar expansion ---------------------------------------

fn rewrite_stmt(s: &Stmt, rename: &[(String, String)], idx: &Expr, ids: &mut NodeIdGen) -> Stmt {
    let kind = match &s.kind {
        StmtKind::VarDecl { name, ty, init } => {
            if let Some((_, arr)) = rename.iter().find(|(o, _)| o == name) {
                // `T name = init;` → `name__x[idx] = init;` (array slot takes
                // the binding's place; absent init keeps the default the
                // allocation already provided).
                match init {
                    Some(e) => StmtKind::Assign {
                        target: LValue::Index(
                            Box::new(Expr::new(Span::synthetic(), ExprKind::Var(arr.clone()))),
                            Box::new(idx.clone()),
                        ),
                        op: AssignOp::Set,
                        value: rewrite_expr(e, rename, idx),
                    },
                    None => StmtKind::Block(Block::default()),
                }
            } else {
                StmtKind::VarDecl {
                    name: name.clone(),
                    ty: ty.clone(),
                    init: init.as_ref().map(|e| rewrite_expr(e, rename, idx)),
                }
            }
        }
        StmtKind::Assign { target, op, value } => {
            let target = match target {
                LValue::Var(n) => {
                    if let Some((_, arr)) = rename.iter().find(|(o, _)| o == n) {
                        LValue::Index(
                            Box::new(Expr::new(Span::synthetic(), ExprKind::Var(arr.clone()))),
                            Box::new(idx.clone()),
                        )
                    } else {
                        LValue::Var(n.clone())
                    }
                }
                LValue::Field(b, f) => {
                    LValue::Field(Box::new(rewrite_expr(b, rename, idx)), f.clone())
                }
                LValue::Index(b, i) => LValue::Index(
                    Box::new(rewrite_expr(b, rename, idx)),
                    Box::new(rewrite_expr(i, rename, idx)),
                ),
            };
            StmtKind::Assign {
                target,
                op: *op,
                value: rewrite_expr(value, rename, idx),
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond: rewrite_expr(cond, rename, idx),
            then_blk: rewrite_block(then_blk, rename, idx, ids),
            else_blk: else_blk
                .as_ref()
                .map(|b| rewrite_block(b, rename, idx, ids)),
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: rewrite_expr(cond, rename, idx),
            body: rewrite_block(body, rename, idx, ids),
        },
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => StmtKind::For {
            init: init
                .as_ref()
                .map(|s| Box::new(rewrite_stmt(s, rename, idx, ids))),
            cond: cond.as_ref().map(|e| rewrite_expr(e, rename, idx)),
            step: step
                .as_ref()
                .map(|s| Box::new(rewrite_stmt(s, rename, idx, ids))),
            body: rewrite_block(body, rename, idx, ids),
        },
        StmtKind::Foreach { var, domain, body } => StmtKind::Foreach {
            var: var.clone(),
            domain: rewrite_expr(domain, rename, idx),
            body: rewrite_block(body, rename, idx, ids),
        },
        StmtKind::Pipelined {
            var,
            domain,
            num_packets,
            body,
        } => StmtKind::Pipelined {
            var: var.clone(),
            domain: rewrite_expr(domain, rename, idx),
            num_packets: rewrite_expr(num_packets, rename, idx),
            body: rewrite_block(body, rename, idx, ids),
        },
        StmtKind::Return(v) => StmtKind::Return(v.as_ref().map(|e| rewrite_expr(e, rename, idx))),
        StmtKind::Expr(e) => StmtKind::Expr(rewrite_expr(e, rename, idx)),
        StmtKind::Block(b) => StmtKind::Block(rewrite_block(b, rename, idx, ids)),
        StmtKind::Break => StmtKind::Break,
        StmtKind::Continue => StmtKind::Continue,
    };
    Stmt::new(ids.fresh(), s.span, kind)
}

fn rewrite_block(b: &Block, rename: &[(String, String)], idx: &Expr, ids: &mut NodeIdGen) -> Block {
    Block::new(
        b.stmts
            .iter()
            .map(|s| rewrite_stmt(s, rename, idx, ids))
            .collect(),
    )
}

fn rewrite_expr(e: &Expr, rename: &[(String, String)], idx: &Expr) -> Expr {
    let kind = match &e.kind {
        ExprKind::Var(n) => {
            if let Some((_, arr)) = rename.iter().find(|(o, _)| o == n) {
                ExprKind::Index(
                    Box::new(Expr::new(Span::synthetic(), ExprKind::Var(arr.clone()))),
                    Box::new(idx.clone()),
                )
            } else {
                ExprKind::Var(n.clone())
            }
        }
        ExprKind::Field(b, f) => ExprKind::Field(Box::new(rewrite_expr(b, rename, idx)), f.clone()),
        ExprKind::Index(b, i) => ExprKind::Index(
            Box::new(rewrite_expr(b, rename, idx)),
            Box::new(rewrite_expr(i, rename, idx)),
        ),
        ExprKind::Unary(op, x) => ExprKind::Unary(*op, Box::new(rewrite_expr(x, rename, idx))),
        ExprKind::Binary(op, l, r) => ExprKind::Binary(
            *op,
            Box::new(rewrite_expr(l, rename, idx)),
            Box::new(rewrite_expr(r, rename, idx)),
        ),
        ExprKind::Ternary(c, a, b) => ExprKind::Ternary(
            Box::new(rewrite_expr(c, rename, idx)),
            Box::new(rewrite_expr(a, rename, idx)),
            Box::new(rewrite_expr(b, rename, idx)),
        ),
        ExprKind::Call { recv, method, args } => ExprKind::Call {
            recv: recv
                .as_ref()
                .map(|r| Box::new(rewrite_expr(r, rename, idx))),
            method: method.clone(),
            args: args.iter().map(|a| rewrite_expr(a, rename, idx)).collect(),
        },
        ExprKind::NewArray(t, len) => {
            ExprKind::NewArray(t.clone(), Box::new(rewrite_expr(len, rename, idx)))
        }
        ExprKind::DomainLit(lo, hi) => ExprKind::DomainLit(
            Box::new(rewrite_expr(lo, rename, idx)),
            Box::new(rewrite_expr(hi, rename, idx)),
        ),
        other => other.clone(),
    };
    Expr::new(e.span, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_lang::interp::{HostEnv, Interp};
    use cgp_lang::{frontend, Value};

    fn norm(src: &str) -> NormalizedPipeline {
        normalize(&frontend(src).unwrap()).unwrap()
    }

    const FISSION_SRC: &str = r#"
        extern int n;
        runtime_define int num_packets;
        class Acc implements Reducinterface {
            double total;
            void reduce(Acc other) { total = total + other.total; }
            void add(double x) { total = total + x; }
        }
        class A {
            double work(double v) { return v * 2.0 + 1.0; }
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; num_packets) {
                    foreach (i in pkt) {
                        double t = toDouble(i) * 0.5;
                        double u = work(t);
                        if (u > 2.0) {
                            acc.add(u);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    #[test]
    fn finds_pipelined_loop_and_sections() {
        let np = norm(FISSION_SRC);
        assert_eq!(np.pkt_var, "pkt");
        assert_eq!(np.prologue.len(), 2);
        assert_eq!(np.epilogue.len(), 1);
        assert!(!np.units.is_empty());
    }

    #[test]
    fn fission_splits_at_conditional() {
        let np = norm(FISSION_SRC);
        // Expect: alloc unit, foreach(t,u computation), CondForeach(acc)
        let kinds: Vec<UnitKind> = np.units.iter().map(|u| u.kind).collect();
        assert!(kinds.contains(&UnitKind::CondForeach), "units: {kinds:?}");
        assert!(kinds.contains(&UnitKind::Foreach));
        assert_eq!(kinds[0], UnitKind::Straight, "allocs first: {kinds:?}");
    }

    #[test]
    fn fission_expands_cross_group_scalars() {
        let np = norm(FISSION_SRC);
        let names: Vec<&str> = np.expanded.iter().map(|(o, _, _)| o.as_str()).collect();
        // `u` crosses from the compute group into the conditional group.
        assert!(names.contains(&"u"), "expanded: {names:?}");
    }

    #[test]
    fn fissioned_program_is_semantically_equivalent() {
        let orig = frontend(FISSION_SRC).unwrap();
        let np = norm(FISSION_SRC);
        for packets in [1, 4, 16] {
            let host = HostEnv::new()
                .bind("n", Value::Int(100))
                .bind("num_packets", Value::Int(packets));
            let mut i1 = Interp::new(&orig, host.clone());
            i1.run_main().unwrap();
            let mut i2 = Interp::new(&np.typed, host);
            i2.run_main().unwrap();
            assert_eq!(i1.output, i2.output, "packets={packets}");
        }
    }

    #[test]
    fn cond_parts_accessor() {
        let np = norm(FISSION_SRC);
        let cond_unit = np
            .units
            .iter()
            .find(|u| u.kind == UnitKind::CondForeach)
            .unwrap();
        let (var, _dom, cond, then) = cond_unit.cond_parts().unwrap();
        assert_eq!(var, "i");
        assert!(cgp_lang::pretty::expr_to_string(cond).contains(">"));
        assert_eq!(then.stmts.len(), 1);
    }

    #[test]
    fn no_fission_for_boundary_free_foreach() {
        let src = r#"
            extern int n;
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 4) {
                    foreach (i in pkt) {
                        acc.add(toDouble(i));
                    }
                }
                print(acc.total);
            } }
        "#;
        let np = norm(src);
        assert_eq!(np.units.len(), 1);
        assert_eq!(np.units[0].kind, UnitKind::Foreach);
        assert!(np.expanded.is_empty());
    }

    #[test]
    fn top_level_conditional_is_isolated() {
        let src = r#"
            extern int n;
            class Acc implements Reducinterface {
                int c;
                void reduce(Acc o) { c = c + o.c; }
                void bump(int k) { c = c + k; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    int count = pkt.size();
                    if (count > 10) {
                        count = 10;
                    }
                    acc.bump(count);
                }
                print(acc.c);
            } }
        "#;
        let np = norm(src);
        assert_eq!(np.units.len(), 3, "straight / cond / straight");
        assert!(np.units[1].label.starts_with("cond"));
    }

    #[test]
    fn rejects_missing_pipelined_loop() {
        let src = "class A { void main() { int x = 1; } }";
        let tp = frontend(src).unwrap();
        assert!(normalize(&tp).is_err());
    }

    #[test]
    fn rejects_cross_cut_var_declared_outside_loop() {
        // `t` is declared before the foreach and carries a per-iteration
        // value across a fission cut → unsupported, must error.
        let src = r#"
            extern int n;
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    double t = 0.0;
                    foreach (i in pkt) {
                        t = toDouble(i);
                        if (t > 1.0) {
                            acc.add(t);
                        }
                    }
                }
                print(acc.total);
            } }
        "#;
        let tp = frontend(src).unwrap();
        let err = normalize(&tp).unwrap_err();
        assert!(err.message.contains("fission"), "{}", err.message);
    }

    #[test]
    fn call_statement_gets_own_unit() {
        let src = r#"
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
                    PipelinedLoop (pkt in all; 2) {
                        foreach (i in pkt) {
                            double v = data[i] * 2.0;
                            acc.add(v);
                        }
                    }
                    print(acc.total);
                }
            }
        "#;
        let np = norm(src);
        // acc.add(v) is a call statement → its own foreach unit.
        let labels: Vec<&str> = np.units.iter().map(|u| u.label.as_str()).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("call")),
            "labels: {labels:?}"
        );
    }

    #[test]
    fn fission_equivalence_with_expanded_objects() {
        let src = r#"
            extern int n;
            class P { double x; double y; }
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double v) { total = total + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 3) {
                    foreach (i in pkt) {
                        P p = new P();
                        p.x = toDouble(i);
                        p.y = p.x * p.x;
                        if (p.y > 4.0) {
                            acc.add(p.y - p.x);
                        }
                    }
                }
                print(acc.total);
            } }
        "#;
        let orig = frontend(src).unwrap();
        let np = norm(src);
        let host = HostEnv::new().bind("n", Value::Int(37));
        let mut i1 = Interp::new(&orig, host.clone());
        i1.run_main().unwrap();
        let mut i2 = Interp::new(&np.typed, host);
        i2.run_main().unwrap();
        assert_eq!(i1.output, i2.output);
    }
}
