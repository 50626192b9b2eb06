//! Cost model (Section 4.3).
//!
//! Computation time for an atomic filter is estimated from its operation
//! counts (floating point, integer, memory) and the computing unit's power;
//! communication time from the volume crossing a boundary and the link
//! bandwidth:
//!
//! ```text
//! Cost_comp(P(C), Task(f)) = weighted_ops(f) / P(C)
//! Cost_comm(B(L), Vol(f))  = latency(L) + Vol(f) / B(L)
//! ```
//!
//! Total pipeline time over `N` packets (either a computing unit or a link
//! is the bottleneck):
//!
//! ```text
//! (N − 1) · T(bottleneck) + Σ_i T(C_i) + Σ_i T(L_i)
//! ```
//!
//! Operation counts are computed by walking the atom's code with symbolic
//! trip counts instantiated from a [`CostEnv`] (packet size, extern scalar
//! values, per-conditional selectivity from workload metadata).

use crate::gencons::reduction_roots;
use crate::graph::{AtomCode, BoundaryGraph, BoundaryKind};
use crate::normalize::NormalizedPipeline;
use crate::place::{PlaceSet, Sectioning};
use cgp_lang::ast::*;
use std::collections::HashMap;
use std::ops::Add;

/// Operation counts for a piece of code (fractional: trip counts and
/// selectivities scale them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCount {
    pub flops: f64,
    pub iops: f64,
    pub mem: f64,
}

impl OpCount {
    pub fn zero() -> Self {
        Self::default()
    }

    pub fn scale(self, k: f64) -> OpCount {
        OpCount {
            flops: self.flops * k,
            iops: self.iops * k,
            mem: self.mem * k,
        }
    }

    /// Weighted total operations.
    pub fn weighted(&self, w: &CostWeights) -> f64 {
        self.flops * w.flop + self.iops * w.iop + self.mem * w.mem
    }
}

impl Add for OpCount {
    type Output = OpCount;

    fn add(self, o: OpCount) -> OpCount {
        OpCount {
            flops: self.flops + o.flops,
            iops: self.iops + o.iops,
            mem: self.mem + o.mem,
        }
    }
}

/// Relative costs of operation classes (in "standard op" units).
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    pub flop: f64,
    pub iop: f64,
    pub mem: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            flop: 1.0,
            iop: 0.5,
            mem: 0.5,
        }
    }
}

/// Workload-dependent inputs to cost estimation.
#[derive(Debug, Clone)]
pub struct CostEnv {
    /// Concrete values for symbols appearing in sections/trip counts:
    /// `pkt.lo`, `pkt.hi`, extern scalars, `len.<array>` for whole-array
    /// sizes.
    pub symbols: HashMap<String, i64>,
    /// Estimated selectivity (pass fraction in `[0, 1]`) per conditional id.
    pub selectivity: HashMap<usize, f64>,
    /// Fallback trip count for loops whose bounds are unknown.
    pub default_trip: f64,
    /// Fallback length for arrays with unknown size.
    pub default_array_len: i64,
    pub weights: CostWeights,
}

impl CostEnv {
    /// Environment for one packet of `packet_size` points starting at 0.
    pub fn for_packet(packet_size: i64) -> Self {
        let mut symbols = HashMap::new();
        symbols.insert("pkt.lo".to_string(), 0);
        symbols.insert("pkt.hi".to_string(), packet_size - 1);
        CostEnv {
            symbols,
            selectivity: HashMap::new(),
            default_trip: 16.0,
            default_array_len: 1024,
            weights: CostWeights::default(),
        }
    }

    pub fn with_symbol(mut self, name: impl Into<String>, v: i64) -> Self {
        self.symbols.insert(name.into(), v);
        self
    }

    pub fn with_selectivity(mut self, cond_id: usize, s: f64) -> Self {
        self.selectivity.insert(cond_id, s);
        self
    }

    fn lookup(&self, name: &str) -> Option<i64> {
        // `d.lo`/`d.hi` for the packet variable are pre-seeded; other domain
        // symbols fall back to the packet bounds (fissioned domains are the
        // packet domain in all our programs).
        if let Some(v) = self.symbols.get(name) {
            return Some(*v);
        }
        if name.ends_with(".lo") {
            return self.symbols.get("pkt.lo").copied();
        }
        if name.ends_with(".hi") {
            return self.symbols.get("pkt.hi").copied();
        }
        None
    }

    /// Selectivity for a conditional (default 0.5 when unmeasured).
    pub fn sel(&self, cond_id: usize) -> f64 {
        *self.selectivity.get(&cond_id).unwrap_or(&0.5)
    }
}

// ---------------------------------------------------------------------------
// operation counting

/// Count operations for one atomic filter under `env`.
pub(crate) fn count_atom(np: &NormalizedPipeline, code: &AtomCode, env: &CostEnv) -> OpCount {
    let mut counter = Counter { np, env, depth: 0 };
    match code {
        AtomCode::Straight(stmts) => counter.stmts(stmts),
        AtomCode::Foreach(s) => counter.stmt(s),
        AtomCode::CondSelect { domain, cond, .. } => {
            let trips = counter.domain_trips(domain);
            counter.expr(cond).scale(trips)
        }
        AtomCode::CondBody {
            domain,
            body,
            cond_id,
            ..
        } => {
            let trips = counter.domain_trips(domain) * env.sel(*cond_id);
            counter.stmts(&body.stmts).scale(trips)
        }
    }
}

/// Count operations for an arbitrary statement slice (prologue/epilogue).
pub fn count_stmts(np: &NormalizedPipeline, stmts: &[Stmt], env: &CostEnv) -> OpCount {
    Counter { np, env, depth: 0 }.stmts(stmts)
}

struct Counter<'a> {
    np: &'a NormalizedPipeline,
    env: &'a CostEnv,
    depth: usize,
}

impl Counter<'_> {
    fn stmts(&mut self, stmts: &[Stmt]) -> OpCount {
        stmts
            .iter()
            .map(|s| self.stmt(s))
            .fold(OpCount::zero(), OpCount::add)
    }

    fn stmt(&mut self, s: &Stmt) -> OpCount {
        match &s.kind {
            StmtKind::VarDecl { init, .. } => {
                let mut c = OpCount {
                    mem: 1.0,
                    ..OpCount::zero()
                };
                if let Some(e) = init {
                    c = c.add(self.expr(e));
                }
                c
            }
            StmtKind::Assign { target, op, value } => {
                let mut c = OpCount {
                    mem: 1.0,
                    ..OpCount::zero()
                };
                if *op != AssignOp::Set {
                    c.flops += 1.0;
                }
                match target {
                    LValue::Field(b, _) => c = c.add(self.expr(b)),
                    LValue::Index(b, i) => {
                        c = c.add(self.expr(b)).add(self.expr(i));
                        c.mem += 1.0;
                    }
                    LValue::Var(_) => {}
                }
                c.add(self.expr(value))
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                // Expected cost: half of each branch (no per-site
                // selectivity knowledge inside segments).
                let mut c = self.expr(cond);
                c = c.add(self.stmts(&then_blk.stmts).scale(0.5));
                if let Some(e) = else_blk {
                    c = c.add(self.stmts(&e.stmts).scale(0.5));
                }
                c
            }
            StmtKind::While { cond, body } => {
                let t = self.env.default_trip;
                self.expr(cond).add(self.stmts(&body.stmts)).scale(t)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let trips = self.for_trips(init, cond);
                let mut c = OpCount::zero();
                if let Some(i) = init {
                    c = c.add(self.stmt(i));
                }
                let mut per = OpCount::zero();
                if let Some(e) = cond {
                    per = per.add(self.expr(e));
                }
                if let Some(st) = step {
                    per = per.add(self.stmt(st));
                }
                per = per.add(self.stmts(&body.stmts));
                c.add(per.scale(trips))
            }
            StmtKind::Foreach { domain, body, .. } => {
                let trips = self.domain_trips(domain);
                self.stmts(&body.stmts).scale(trips)
            }
            StmtKind::Pipelined { .. } => OpCount::zero(),
            StmtKind::Return(v) => v.as_ref().map(|e| self.expr(e)).unwrap_or_default(),
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Block(b) => self.stmts(&b.stmts),
            StmtKind::Break | StmtKind::Continue => OpCount::zero(),
        }
    }

    fn domain_trips(&mut self, domain: &Expr) -> f64 {
        match &domain.kind {
            ExprKind::Var(d) => {
                let lo = self.env.lookup(&format!("{d}.lo"));
                let hi = self.env.lookup(&format!("{d}.hi"));
                match (lo, hi) {
                    (Some(l), Some(h)) => (h - l + 1).max(0) as f64,
                    _ => self.env.default_trip,
                }
            }
            ExprKind::DomainLit(lo, hi) => {
                let l = self.const_int(lo);
                let h = self.const_int(hi);
                match (l, h) {
                    (Some(l), Some(h)) => (h - l + 1).max(0) as f64,
                    _ => self.env.default_trip,
                }
            }
            _ => self.env.default_trip,
        }
    }

    fn for_trips(&mut self, init: &Option<Box<Stmt>>, cond: &Option<Expr>) -> f64 {
        let lo = init.as_ref().and_then(|s| match &s.kind {
            StmtKind::VarDecl { init: Some(e), .. } => self.const_int(e),
            _ => None,
        });
        let hi = cond.as_ref().and_then(|e| match &e.kind {
            ExprKind::Binary(BinOp::Lt, _, r) => self.const_int(r),
            ExprKind::Binary(BinOp::Le, _, r) => self.const_int(r).map(|v| v + 1),
            _ => None,
        });
        match (lo, hi) {
            (Some(l), Some(h)) => (h - l).max(0) as f64,
            _ => self.env.default_trip,
        }
    }

    fn const_int(&self, e: &Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(*v),
            ExprKind::Var(n) => self.env.lookup(n),
            ExprKind::Unary(UnOp::Neg, x) => self.const_int(x).map(|v| -v),
            ExprKind::Binary(op, l, r) => {
                let (a, b) = (self.const_int(l)?, self.const_int(r)?);
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div => (b != 0).then(|| a / b),
                    _ => None,
                }
            }
            ExprKind::Call {
                recv: Some(r),
                method,
                args,
            } if args.is_empty() => {
                if let ExprKind::Var(d) = &r.kind {
                    match method.as_str() {
                        "lo" => self.env.lookup(&format!("{d}.lo")),
                        "hi" => self.env.lookup(&format!("{d}.hi")),
                        "size" => {
                            let lo = self.env.lookup(&format!("{d}.lo"))?;
                            let hi = self.env.lookup(&format!("{d}.hi"))?;
                            Some((hi - lo + 1).max(0))
                        }
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn expr(&mut self, e: &Expr) -> OpCount {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::DoubleLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Null => OpCount::zero(),
            ExprKind::Var(_) | ExprKind::This => OpCount {
                mem: 1.0,
                ..OpCount::zero()
            },
            ExprKind::Field(b, _) => self.expr(b).add(OpCount {
                mem: 1.0,
                ..OpCount::zero()
            }),
            ExprKind::Index(b, i) => self.expr(b).add(self.expr(i)).add(OpCount {
                mem: 1.0,
                iops: 1.0,
                ..OpCount::zero()
            }),
            ExprKind::Unary(_, x) => self.expr(x).add(OpCount {
                iops: 1.0,
                ..OpCount::zero()
            }),
            ExprKind::Binary(op, l, r) => {
                let mut c = self.expr(l).add(self.expr(r));
                // Without per-expression type inference here, count double
                // arithmetic as flops when either side mentions a double
                // literal or a sqrt-ish call — otherwise attribute
                // arithmetic half/half. Simpler and stable: arithmetic ops
                // count as one flop, comparisons/logic as one iop.
                if op.is_arith() {
                    c.flops += 1.0;
                } else {
                    c.iops += 1.0;
                }
                c
            }
            ExprKind::Ternary(c0, a, b) => self
                .expr(c0)
                .add(self.expr(a).scale(0.5))
                .add(self.expr(b).scale(0.5)),
            ExprKind::Call { recv, method, args } => {
                let mut c = args
                    .iter()
                    .map(|a| self.expr(a))
                    .fold(OpCount::zero(), OpCount::add);
                if let Some(r) = recv {
                    c = c.add(self.expr(r));
                }
                c.add(self.call_cost(recv, method))
            }
            ExprKind::New(_) => OpCount {
                mem: 4.0,
                ..OpCount::zero()
            },
            ExprKind::NewArray(_, len) => self.expr(len).add(OpCount {
                mem: 8.0,
                ..OpCount::zero()
            }),
            ExprKind::DomainLit(lo, hi) => self.expr(lo).add(self.expr(hi)),
        }
    }

    fn call_cost(&mut self, recv: &Option<Box<Expr>>, method: &str) -> OpCount {
        if recv.is_none() && is_builtin(method) {
            return builtin_cost(method);
        }
        if recv.is_some() && (DOMAIN_METHODS.contains(&method) || ARRAY_METHODS.contains(&method)) {
            return OpCount {
                iops: 1.0,
                ..OpCount::zero()
            };
        }
        if self.depth >= 8 {
            return OpCount {
                flops: 4.0,
                iops: 4.0,
                mem: 4.0,
            }; // recursion fallback
        }
        // Resolve the method body: receiver's class if known, else search
        // all classes for a uniquely-named method (counting only).
        let body = self.resolve_method(recv, method);
        match body {
            Some(m) => {
                self.depth += 1;
                let c = self.stmts(&m.body.stmts);
                self.depth -= 1;
                c.add(CALL_OVERHEAD)
            }
            None => OpCount {
                flops: 2.0,
                iops: 2.0,
                mem: 2.0,
            },
        }
    }

    fn resolve_method(&self, recv: &Option<Box<Expr>>, method: &str) -> Option<MethodDecl> {
        let prog = &self.np.typed.program;
        if recv.is_none() {
            if let Some(m) = prog.method(&self.np.class, method) {
                return Some(m.clone());
            }
        }
        let mut found: Option<MethodDecl> = None;
        for c in &prog.classes {
            if let Some(m) = c.methods.iter().find(|m| m.name == method) {
                if found.is_some() {
                    return found; // ambiguous: first match is good enough for counting
                }
                found = Some(m.clone());
            }
        }
        found
    }
}

/// Dispatch-and-frame overhead charged per user-method invocation, on top
/// of the callee body's counted operations.
///
/// Calibrated against the committed `BENCH_vm.json` filter-body
/// measurements: with the old token charge (2 mem ops) the knn body
/// (arithmetic-dominated, ~1 call per element) and the vmscope body
/// (~48 `img.put` calls per row) implied per-engine compute powers 12×
/// apart on the VM and 3× apart on the tree-walker — i.e. calls were the
/// dominant un-modeled cost. At ~100 weighted standard ops per call the
/// two programs' implied powers agree to within 2.6× (VM) / 1.5×
/// (interpreter), matching the measured per-invoke cost of both engines
/// (argument copies, frame slot binding, write-back; the tree-walker adds
/// scope-map churn on the same order relative to its own rate).
const CALL_OVERHEAD: OpCount = OpCount {
    flops: 0.0,
    iops: 120.0,
    mem: 80.0,
};

/// Standard-operation estimates for builtins.
fn builtin_cost(name: &str) -> OpCount {
    match name {
        "sqrt" => OpCount {
            flops: 8.0,
            ..OpCount::zero()
        },
        "pow" | "exp" | "log" => OpCount {
            flops: 20.0,
            ..OpCount::zero()
        },
        "floor" | "ceil" | "abs" | "toInt" | "toDouble" => OpCount {
            flops: 1.0,
            ..OpCount::zero()
        },
        "min" | "max" => OpCount {
            flops: 1.0,
            ..OpCount::zero()
        },
        "print" => OpCount {
            mem: 4.0,
            ..OpCount::zero()
        },
        _ => OpCount {
            flops: 1.0,
            ..OpCount::zero()
        },
    }
}

// ---------------------------------------------------------------------------
// volume model

/// Estimated bytes for one boundary's ReqComm set under `env`. If the
/// boundary is a filtering (`CondFilter`) boundary, sectioned places are
/// scaled by the conditional's selectivity (only passing elements travel).
pub fn volume_bytes(
    np: &NormalizedPipeline,
    set: &PlaceSet,
    env: &CostEnv,
    selectivity: Option<f64>,
) -> f64 {
    let mut total = 0.0;
    for p in set.iter() {
        let elem = elem_size(np, &p.root, &p.fields);
        let count = match &p.sect {
            Sectioning::NotIndexed => 1.0,
            Sectioning::All => env
                .lookup(&format!("len.{}", p.root))
                .unwrap_or(env.default_array_len) as f64,
            Sectioning::Range(sec) => {
                let lookup = |s: &str| env.lookup(s);
                sec.len(&lookup)
                    .map(|v| v as f64)
                    .unwrap_or(env.default_array_len as f64)
            }
        };
        let count = match (&p.sect, selectivity) {
            (Sectioning::NotIndexed, _) | (_, None) => count,
            (_, Some(s)) => count * s,
        };
        total += elem * count;
    }
    total
}

/// Byte size of the value a place selects: scalars are 8 bytes; objects are
/// the sum of their scalar fields (nested classes recurse; array-typed
/// fields count a default handle — their contents appear as separate
/// places).
fn elem_size(np: &NormalizedPipeline, root: &str, fields: &[String]) -> f64 {
    let prog = &np.typed.program;
    // Resolve the root's type from main's scope or externs.
    let mut ty: Option<Type> = np
        .typed
        .symbols
        .scope(&np.class, "main")
        .and_then(|sc| sc.get(root).cloned())
        .or_else(|| np.typed.symbols.externs.get(root).cloned());
    if ty.is_none() {
        return 8.0;
    }
    // Step into the element type for sectioned roots.
    if let Some(Type::Array(el)) = &ty {
        ty = Some((**el).clone());
    }
    for f in fields {
        let Some(Type::Class(c)) = &ty else {
            return 8.0;
        };
        ty = prog
            .class(c)
            .and_then(|cd| cd.field(f))
            .map(|fd| fd.ty.clone());
        if let Some(Type::Array(el)) = &ty {
            ty = Some((**el).clone());
        }
        if ty.is_none() {
            return 8.0;
        }
    }
    type_size(prog, &ty.unwrap(), 0)
}

fn type_size(prog: &Program, ty: &Type, depth: usize) -> f64 {
    if depth > 4 {
        return 8.0;
    }
    match ty {
        Type::Int | Type::Double => 8.0,
        Type::Bool => 1.0,
        Type::Void => 0.0,
        Type::RectDomain(_) => 16.0,
        Type::Array(el) => 16.0 + type_size(prog, el, depth + 1), // handle + sample elem
        Type::Class(c) => prog
            .class(c)
            .map(|cd| {
                cd.fields
                    .iter()
                    .map(|f| type_size(prog, &f.ty, depth + 1))
                    .sum()
            })
            .unwrap_or(8.0),
    }
}

// ---------------------------------------------------------------------------
// pipeline-time formula

/// Per-packet stage times for a concrete decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimes {
    /// `T(C_i)` for each computing unit, seconds per packet.
    pub comp: Vec<f64>,
    /// `T(L_i)` for each link, seconds per packet.
    pub comm: Vec<f64>,
}

impl StageTimes {
    /// The paper's total-time formula over `n_packets`.
    pub fn total_time(&self, n_packets: u64) -> f64 {
        let fill: f64 = self.comp.iter().sum::<f64>() + self.comm.iter().sum::<f64>();
        let bottleneck = self
            .comp
            .iter()
            .chain(self.comm.iter())
            .cloned()
            .fold(0.0_f64, f64::max);
        (n_packets.saturating_sub(1)) as f64 * bottleneck + fill
    }

    /// Which resource is the bottleneck: `("C", i)` or `("L", i)`.
    pub fn bottleneck(&self) -> (&'static str, usize) {
        let mut best = ("C", 0usize);
        let mut val = f64::MIN;
        for (i, t) in self.comp.iter().enumerate() {
            if *t > val {
                val = *t;
                best = ("C", i);
            }
        }
        for (i, t) in self.comm.iter().enumerate() {
            if *t > val {
                val = *t;
                best = ("L", i);
            }
        }
        best
    }
}

/// Transport class of a pipeline link, with default `B(L)` / latency
/// constants for each. Same-host links are dramatically cheaper than a
/// network hop, and the runtime exploits that automatically (batched
/// mutex channels in-process, the shared-memory transport between
/// co-located worker processes, TCP across hosts) — the cost model must
/// see the same asymmetry or it will shy away from cuts that are nearly
/// free in practice.
///
/// The constants are calibrated against the committed
/// `BENCH_dataplane.json` measurements (distributed 1 KiB packet echo:
/// the shm transport carries ~3× loopback TCP's packet rate, with
/// attach/wake costs in the low microseconds; loopback TCP pays the
/// kernel socket path per frame; cross-host assumes commodity gigabit
/// Ethernet as in the paper's cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Shared-memory ring between processes on one host (or an
    /// in-process channel link).
    SameHostShm,
    /// Loopback TCP between processes on one host.
    SameHostTcp,
    /// TCP between hosts on a LAN.
    CrossHost,
}

impl LinkClass {
    /// Default link bandwidth `B(L)`, bytes per second.
    pub const fn bandwidth(self) -> f64 {
        match self {
            LinkClass::SameHostShm => 1.2e9,
            LinkClass::SameHostTcp => 4.0e8,
            LinkClass::CrossHost => 1.2e8,
        }
    }

    /// Default per-message link latency, seconds.
    pub const fn latency(self) -> f64 {
        match self {
            LinkClass::SameHostShm => 3e-6,
            LinkClass::SameHostTcp => 3e-5,
            LinkClass::CrossHost => 1e-4,
        }
    }
}

/// Execution engine running filter bodies inside a pipeline unit, with a
/// calibrated compute power (standard ops/second) for each — the
/// compute-side twin of [`LinkClass`].
///
/// The constants are pinned to the committed `BENCH_vm.json` baseline:
/// `vm_guard` derives each microbench body's standard-op count per domain
/// element from this very cost model (`*_model_ops_per_elem`), so
/// `ops_per_elem × measured elems/s` is the power one program implies for
/// one engine. Each constant is the geometric mean of the knn and vmscope
/// implied powers, rounded to two figures; a unit test cross-checks the
/// constants against the baseline file so re-recording `BENCH_vm.json`
/// on a very different machine flags them for re-calibration.
///
/// The runtime executes every filter on the register VM, so plans built
/// for real execution should use [`FilterEngine::Vm`]. Keep the *plan*
/// engine fixed when comparing engines: byte-identity checks between the
/// runtime and the interpreter-backed sequential oracle rely on both
/// executing the same decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterEngine {
    /// Register bytecode VM (`cgp_lang::bytecode`), the runtime's engine.
    Vm,
    /// Tree-walking interpreter (`cgp_lang::interp`), the sequential
    /// oracle.
    TreeWalker,
}

impl FilterEngine {
    /// Calibrated compute power `P(C)`, standard ops per second.
    pub const fn power(self) -> f64 {
        match self {
            FilterEngine::Vm => 3.0e8,
            FilterEngine::TreeWalker => 5.8e7,
        }
    }
}

/// A pipeline of computing units and links (the execution environment the
/// decomposition targets).
#[derive(Debug, Clone)]
pub struct PipelineEnv {
    /// Computing power of each `C_i`, standard ops per second.
    pub power: Vec<f64>,
    /// Bandwidth of each `L_i`, bytes per second.
    pub bandwidth: Vec<f64>,
    /// Per-message latency of each `L_i`, seconds.
    pub latency: Vec<f64>,
}

impl PipelineEnv {
    /// Uniform pipeline: `m` units of `power`, `m-1` links of `bandwidth`.
    pub fn uniform(m: usize, power: f64, bandwidth: f64, latency: f64) -> Self {
        assert!(m >= 1);
        PipelineEnv {
            power: vec![power; m],
            bandwidth: vec![bandwidth; m.saturating_sub(1)],
            latency: vec![latency; m.saturating_sub(1)],
        }
    }

    /// Uniform pipeline whose links all have `class` characteristics.
    pub(crate) fn uniform_class(m: usize, power: f64, class: LinkClass) -> Self {
        Self::uniform(m, power, class.bandwidth(), class.latency())
    }

    /// Uniform same-host pipeline: every link is a shared-memory hop
    /// ([`LinkClass::SameHostShm`]), the shape the launcher produces
    /// when all workers land on one machine.
    pub fn same_host(m: usize, power: f64) -> Self {
        Self::uniform_class(m, power, LinkClass::SameHostShm)
    }

    pub fn m(&self) -> usize {
        self.power.len()
    }

    /// `Cost_comp(P(C_j), task)`. A unit with zero, negative, or
    /// non-finite power cannot compute: its cost is `+∞`, never `NaN`
    /// (`NaN` would silently poison every comparison in the DP).
    pub fn cost_comp(&self, j: usize, task: &OpCount, w: &CostWeights) -> f64 {
        let p = self.power[j];
        if !p.is_finite() || p <= 0.0 {
            return f64::INFINITY;
        }
        let c = task.weighted(w) / p;
        if c.is_nan() {
            f64::INFINITY
        } else {
            c
        }
    }

    /// `Cost_comm(B(L_j), vol)`. Guarded against degenerate links: moving
    /// nothing costs only the link latency (avoiding `0.0 / 0.0 → NaN`),
    /// and a zero/negative/non-finite bandwidth makes any actual transfer
    /// cost `+∞` — finite-or-infinite, never `NaN`.
    pub fn cost_comm(&self, j: usize, bytes: f64) -> f64 {
        let lat = if self.latency[j].is_finite() {
            self.latency[j]
        } else {
            f64::INFINITY
        };
        if bytes <= 0.0 {
            return lat;
        }
        let bw = self.bandwidth[j];
        if !bw.is_finite() || bw <= 0.0 {
            return f64::INFINITY;
        }
        let c = lat + bytes / bw;
        if c.is_nan() {
            f64::INFINITY
        } else {
            c
        }
    }

    /// The environment with interior unit `j` removed — the failover
    /// target when host `j` dies mid-run. Links `L_{j-1}` and `L_j` merge
    /// into one route through the dead host's position: data still
    /// traverses both physical hops, so the merged link takes the
    /// narrower bandwidth and the summed latency.
    ///
    /// Endpoints are irremovable: unit 0 owns the input data and unit
    /// `m-1` owns the output view, so losing either cannot be replanned
    /// around. Returns `None` for those, for out-of-range `j`, and for
    /// pipelines too short to shrink (`m < 3`).
    pub fn without_unit(&self, j: usize) -> Option<PipelineEnv> {
        if self.m() < 3 || j == 0 || j >= self.m() - 1 {
            return None;
        }
        let mut power = self.power.clone();
        power.remove(j);
        let mut bandwidth = self.bandwidth.clone();
        let mut latency = self.latency.clone();
        let merged_bw = bandwidth[j - 1].min(bandwidth[j]);
        let merged_lat = latency[j - 1] + latency[j];
        bandwidth.remove(j);
        latency.remove(j);
        bandwidth[j - 1] = merged_bw;
        latency[j - 1] = merged_lat;
        Some(PipelineEnv {
            power,
            bandwidth,
            latency,
        })
    }
}

/// Inputs to the decomposition: per-atom tasks and per-boundary volumes.
#[derive(Debug, Clone)]
pub struct ChainCosts {
    /// `Task(f_i)` for each atom (n+1 entries).
    pub tasks: Vec<OpCount>,
    /// `Vol(f_i)` = bytes crossing if a cut is placed after atom i
    /// (n entries — the final atom's results stay put per the paper's
    /// `ReqComm(end) = ∅`).
    pub volumes: Vec<f64>,
    pub weights: CostWeights,
}

/// Compute per-atom op counts and per-boundary volumes for a chain.
pub fn chain_costs(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    reqcomm: &[PlaceSet],
    env: &CostEnv,
) -> ChainCosts {
    let tasks: Vec<OpCount> = graph
        .atoms
        .iter()
        .map(|a| count_atom(np, &a.code, env))
        .collect();
    let volumes: Vec<f64> = graph
        .boundaries
        .iter()
        .map(|b| {
            let sel = if b.kind == BoundaryKind::CondFilter {
                // boundary index == select atom index; its cond_id drives
                // the selectivity lookup
                match &graph.atoms[b.index].code {
                    AtomCode::CondSelect { cond_id, .. } => Some(env.sel(*cond_id)),
                    _ => None,
                }
            } else {
                None
            };
            volume_bytes(np, &reqcomm[b.index], env, sel)
        })
        .collect();
    let _ = reduction_roots(np);
    ChainCosts {
        tasks,
        volumes,
        weights: env.weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::normalize::normalize;
    use crate::reqcomm::analyze_chain;
    use cgp_lang::frontend;

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
                        double v = data[i] * sqrt(toDouble(i));
                        if (v > 1.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    fn setup(src: &str, pkt: i64) -> (NormalizedPipeline, BoundaryGraph, Vec<PlaceSet>, CostEnv) {
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let env = CostEnv::for_packet(pkt).with_symbol("n", 1000);
        (np, g, ca.reqcomm, env)
    }

    #[test]
    fn op_counts_scale_with_packet_size() {
        let (np, g, _rc, env1) = setup(BASE, 100);
        let env2 = CostEnv::for_packet(200).with_symbol("n", 1000);
        let compute = g
            .atoms
            .iter()
            .find(|a| matches!(a.code, AtomCode::Foreach(_)))
            .unwrap();
        let c1 = count_atom(&np, &compute.code, &env1);
        let c2 = count_atom(&np, &compute.code, &env2);
        assert!(c1.flops > 0.0);
        assert!((c2.flops / c1.flops - 2.0).abs() < 1e-9, "{c1:?} vs {c2:?}");
    }

    #[test]
    fn selectivity_scales_cond_body() {
        let (np, g, _rc, env) = setup(BASE, 100);
        let body = g
            .atoms
            .iter()
            .find(|a| matches!(a.code, AtomCode::CondBody { .. }))
            .unwrap();
        let lo = count_atom(&np, &body.code, &env.clone().with_selectivity(0, 0.1));
        let hi = count_atom(&np, &body.code, &env.with_selectivity(0, 0.9));
        assert!(hi.weighted(&CostWeights::default()) > 5.0 * lo.weighted(&CostWeights::default()));
    }

    #[test]
    fn volume_counts_section_bytes() {
        let (np, g, rc, env) = setup(BASE, 100);
        // boundary 0: data[pkt.lo:pkt.hi] → 100 doubles = 800 bytes.
        let v = volume_bytes(&np, &rc[0], &env, None);
        assert!((v - 800.0).abs() < 1e-6, "v = {v}");
        let _ = g;
    }

    #[test]
    fn filtering_boundary_volume_scales_with_selectivity() {
        let (np, g, rc, env) = setup(BASE, 100);
        let env = env.with_selectivity(0, 0.25);
        let costs = chain_costs(&np, &g, &rc, &env);
        let cond_b = g
            .boundaries
            .iter()
            .position(|b| b.kind == BoundaryKind::CondFilter)
            .unwrap();
        // v__x section of 100 doubles × 0.25 = 200 bytes.
        assert!(
            (costs.volumes[cond_b] - 200.0).abs() < 1e-6,
            "{:?}",
            costs.volumes
        );
    }

    #[test]
    fn degenerate_links_and_units_never_produce_nan() {
        let env = PipelineEnv {
            power: vec![1e6, 0.0, -5.0, f64::NAN],
            bandwidth: vec![0.0, -1.0, f64::NAN],
            latency: vec![1e-5, 0.0, f64::NAN],
        };
        // Zero volume over a zero-bandwidth link: latency only, not 0/0.
        assert_eq!(env.cost_comm(0, 0.0), 1e-5);
        // Real volume over a dead/negative/NaN-bandwidth link: +∞.
        assert_eq!(env.cost_comm(0, 100.0), f64::INFINITY);
        assert_eq!(env.cost_comm(1, 100.0), f64::INFINITY);
        assert_eq!(env.cost_comm(2, 100.0), f64::INFINITY);
        // NaN latency resolves to +∞, never NaN.
        assert!(!env.cost_comm(2, 0.0).is_nan());
        // Degenerate compute power: +∞, never NaN, even for a zero task.
        let zero = OpCount::zero();
        let w = CostWeights::default();
        assert!(env.cost_comp(0, &zero, &w).is_finite());
        assert_eq!(env.cost_comp(1, &zero, &w), f64::INFINITY);
        assert_eq!(env.cost_comp(2, &zero, &w), f64::INFINITY);
        assert_eq!(env.cost_comp(3, &zero, &w), f64::INFINITY);
    }

    #[test]
    fn pipeline_time_formula_matches_paper() {
        let st = StageTimes {
            comp: vec![1.0, 3.0, 1.0],
            comm: vec![0.5, 0.5],
        };
        // bottleneck = C_2 at 3.0; fill = 6.0
        assert_eq!(st.bottleneck(), ("C", 1));
        let t = st.total_time(10);
        assert!((t - (9.0 * 3.0 + 6.0)).abs() < 1e-9);
        // single packet: just the fill time
        assert!((st.total_time(1) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn link_bottleneck_detected() {
        let st = StageTimes {
            comp: vec![1.0, 1.0],
            comm: vec![5.0],
        };
        assert_eq!(st.bottleneck(), ("L", 0));
    }

    #[test]
    fn uniform_env_costs() {
        let env = PipelineEnv::uniform(3, 1e9, 1e8, 1e-4);
        let task = OpCount {
            flops: 1e6,
            iops: 0.0,
            mem: 0.0,
        };
        let t = env.cost_comp(0, &task, &CostWeights::default());
        assert!((t - 1e-3).abs() < 1e-12);
        let c = env.cost_comm(0, 1e6);
        assert!((c - (1e-4 + 1e-2)).abs() < 1e-12);
    }

    #[test]
    fn same_host_links_are_strictly_cheaper_per_class() {
        // The class ordering the runtime actually delivers: shm < loopback
        // TCP < cross-host, in both bandwidth cost and latency.
        let vol = 64.0 * 1024.0;
        let shm = PipelineEnv::same_host(3, 1e9);
        let tcp = PipelineEnv::uniform_class(3, 1e9, LinkClass::SameHostTcp);
        let lan = PipelineEnv::uniform_class(3, 1e9, LinkClass::CrossHost);
        assert!(shm.cost_comm(0, vol) < tcp.cost_comm(0, vol));
        assert!(tcp.cost_comm(0, vol) < lan.cost_comm(0, vol));
        assert!(LinkClass::SameHostShm.latency() < LinkClass::CrossHost.latency());
        // A cheaper link can flip the decomposition's bottleneck from a
        // link to a computing unit: the same volume that saturates a
        // cross-host link is absorbed by a same-host one.
        let task = OpCount {
            flops: 1e5,
            iops: 0.0,
            mem: 0.0,
        };
        let w = CostWeights::default();
        let comp = shm.cost_comp(0, &task, &w);
        assert!(shm.cost_comm(0, vol) < comp);
        assert!(lan.cost_comm(0, vol) > comp);
    }

    #[test]
    fn builtin_costs_ordered() {
        assert!(builtin_cost("pow").flops > builtin_cost("sqrt").flops);
        assert!(builtin_cost("sqrt").flops > builtin_cost("abs").flops);
    }

    /// [`FilterEngine`] powers stay pinned to the committed baseline:
    /// each constant must sit between the two microbenches' implied
    /// powers (`model_ops_per_elem × measured elems/s`) and within 30%
    /// of their geometric mean. Re-recording `BENCH_vm.json` on a very
    /// different machine deliberately fails this until the constants are
    /// re-calibrated alongside it.
    #[test]
    fn filter_engine_powers_match_committed_baseline() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_vm.json"))
                .expect("committed BENCH_vm.json");
        let field = |key: &str| -> f64 {
            let at = text.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
            let rest = text[at..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse().expect(key)
        };
        for (engine, knn_key, vms_key) in [
            (
                FilterEngine::Vm,
                "knn_vm_elems_per_sec",
                "vmscope_vm_elems_per_sec",
            ),
            (
                FilterEngine::TreeWalker,
                "knn_interp_elems_per_sec",
                "vmscope_interp_elems_per_sec",
            ),
        ] {
            let knn = field("knn_model_ops_per_elem") * field(knn_key);
            let vms = field("vmscope_model_ops_per_elem") * field(vms_key);
            let (lo, hi) = (knn.min(vms), knn.max(vms));
            let p = engine.power();
            assert!(
                lo <= p && p <= hi,
                "{engine:?} power {p:.2e} outside implied range [{lo:.2e}, {hi:.2e}]"
            );
            let geomean = (knn * vms).sqrt();
            assert!(
                (p / geomean).ln().abs() < 0.3_f64.ln_1p(),
                "{engine:?} power {p:.2e} is more than 30% from the implied \
                 geometric mean {geomean:.2e}"
            );
        }
        // The calibrated constants must themselves respect the guard's
        // speedup floor — the VM plans on being at least 2× the walker.
        assert!(FilterEngine::Vm.power() >= 2.0 * FilterEngine::TreeWalker.power());
    }

    #[test]
    fn interprocedural_counting_includes_callee() {
        let src = r#"
            extern int n;
            extern double[] xs;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A {
                double heavy(double x) {
                    double acc2 = 0.0;
                    for (int k = 0; k < 10; k += 1) { acc2 += sqrt(x + toDouble(k)); }
                    return acc2;
                }
                void main() {
                    RectDomain<1> all = [0 : n - 1];
                    Acc acc = new Acc();
                    PipelinedLoop (pkt in all; 2) {
                        foreach (i in pkt) {
                            double h = heavy(xs[i]);
                            acc.add(h);
                        }
                    }
                    print(acc.t);
                }
            }
        "#;
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let env = CostEnv::for_packet(50).with_symbol("n", 100);
        let total = count_stmts(&np, &np.body_stmts(), &env);
        // 50 iterations × 10 inner × ~8 flops (sqrt) ≥ 4000 flops.
        assert!(total.flops >= 4000.0, "flops = {}", total.flops);
    }
}
