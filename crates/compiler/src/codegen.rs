//! Code generation (Section 5): turn a decomposition into an executable
//! [`FilterPlan`].
//!
//! Each computing unit gets one filter. A filter's code is the sequence of
//! atomic filters assigned to its unit; buffers between filters follow the
//! [`crate::packing`] layouts computed from ReqComm at the chosen cuts.
//!
//! Special handling:
//!
//! - **Filtering cuts** — when a `CondSelect`/`CondBody` pair is split
//!   across a link, the upstream filter evaluates the condition per point
//!   and emits the passing-index list; sectioned buffer entries carry only
//!   passing elements; the downstream filter executes the guarded body for
//!   passing points only. When both halves land on the same filter, the
//!   original conditional foreach is reconstituted.
//! - **Replicated allocations** — packet-local arrays (scalar expansion
//!   temporaries) whose *contents* are produced downstream of their
//!   allocation site are re-allocated locally by the consuming filter; the
//!   analysis guarantees their contents are fully written before use.
//! - **Per-unit starts** — a unit does not run the whole prologue. At
//!   plan-build time each unit gets a root-level backward slice of it,
//!   iterated to a fixpoint ([`FilterSpec::prologue`]). The slice starts
//!   from the names the unit's own code mentions — its atoms, its
//!   replicated decls, the roots it packs and the symbols of its links'
//!   section bounds, the loop-bounds probe on unit 0 and the epilogue on
//!   the last unit — minus the reduction roots the unit does not hold. A
//!   prologue statement is kept if it mentions a needed name, and its
//!   names then become needed too. A statement's names include the
//!   externs named, transitively, by every method of that name in any
//!   class (calls dispatch on the runtime class). Statements no unit
//!   keeps go to unit 0, so a prologue that fails anywhere still fails
//!   the run.
//! - **Reduction finalization** — unit `j` *holds* a reduction root when
//!   its atoms name it; a root no unit's atoms name is held by the last
//!   unit ([`FilterSpec::holds`]). A holder accumulates into the copy its
//!   slice builds, and every copy of every holder stage runs that slice;
//!   so a root held by more than one unit, or by a stage of width > 1,
//!   needs a prologue that constructs the reduction identity (a seed
//!   there counts once per holder copy). After the last
//!   packet each unit ships only the roots it holds or has adopted. A
//!   unit that has the root merges the partial with `reduce`; a unit
//!   that lacks it adopts the partial with no merge. The epilogue runs
//!   at the final filter.
//! - **Host needs** — a unit none of whose names is an extern (its
//!   slice's included, and `reduce`'s when it holds or adopts a root)
//!   needs no host environment ([`FilterSpec::needs_host`]); the runtime
//!   then binds an empty one, and reading an unbound extern fails with
//!   the engines' usual diagnostic.
//!
//! The module also provides [`run_plan_sequential`] — a single-threaded
//! Path-A executor that moves real packed buffers between filter stages and
//! is compared against the sequential interpreter in tests. The threaded
//! DataCutter-backed executor in `cgp-core` reuses the same per-filter step
//! logic through [`FilterStepper`].

use crate::decompose::Decomposition;
use crate::error::{CompileError, CompileResult};
use crate::graph::{AtomCode, BoundaryGraph, BoundaryKind};
use crate::normalize::NormalizedPipeline;
use crate::packing::{compute_layout, pack, unpack, PackLayout, RuntimeEnv};
use crate::place::{PlaceSet, Sectioning};
use crate::reqcomm::ChainAnalysis;
use cgp_lang::ast::*;
use cgp_lang::bytecode::{vm::Vm, CodeBlock, ProgramCode};
use cgp_lang::interp::{split_domain, HostEnv, Interp};
use cgp_lang::span::Span;
use cgp_lang::types::TypedProgram;
use cgp_lang::value::{ObjectVal, Value};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// One filter of the generated pipeline.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Pipeline unit index this filter runs on.
    pub unit: usize,
    pub name: String,
    /// Atom indices (into the boundary graph) executed here, in order.
    pub atoms: Vec<usize>,
    /// VarDecl statements replicated from upstream atoms for packet-local
    /// arrays this filter writes before reading.
    pub replicated_decls: Vec<Stmt>,
    /// Reduction roots this unit holds: its atoms name them, or no
    /// unit's atoms do and this is the last unit.
    pub holds: Vec<String>,
    /// Reduction roots held upstream and not here: this unit adopts the
    /// first partial it receives instead of merging it.
    pub adopts: Vec<String>,
    /// Indices into the prologue of the statements this unit starts
    /// with, in program order.
    pub prologue: Vec<usize>,
    /// Whether this unit's code names an extern, so its copies need the
    /// host environment.
    pub needs_host: bool,
}

/// An executable decomposition.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    pub np: NormalizedPipeline,
    pub graph: BoundaryGraph,
    pub analysis: ChainAnalysis,
    pub decomposition: Decomposition,
    /// Number of pipeline units `m`.
    pub m: usize,
    pub filters: Vec<FilterSpec>,
    /// Buffer layout for each link (`m − 1` entries).
    pub layouts: Vec<PackLayout>,
    /// Register bytecode for every filter's atom sequence, lowered once
    /// at plan-build time and shared (read-only) by all filter copies.
    pub lowered: Arc<LoweredPlan>,
}

/// Plan-time lowered bytecode: the whole program's methods, the per-run
/// lifecycle slices (per-unit prologue, loop-bounds probe, epilogue), and
/// one step sequence per filter mirroring [`FilterSpec::atoms`] (a
/// `CondSelect`/`CondBody` pair sharing a filter collapses into one
/// reconstituted slice). Both engines of a [`FilterStepper`] walk these
/// same lists, so they run the same statements in the same order.
#[derive(Debug)]
pub struct LoweredPlan {
    pub prog: ProgramCode,
    /// Per-unit prologue slices ([`FilterSpec::prologue`]).
    pub prologue: Vec<LoweredSlice>,
    /// Binds `__dom` and `__np`: the pipelined loop's domain and packet
    /// count, evaluated against a started unit's state.
    pub bounds: LoweredSlice,
    /// Statements after the loop, run at the final filter.
    pub epilogue: LoweredSlice,
    pub steps: Vec<Vec<LoweredStep>>,
    /// Per-filter replicated packet-local allocations.
    pub replicated: Vec<Option<LoweredSlice>>,
}

/// A statement slice in both executable forms: the AST the tree-walker
/// runs and its register lowering for the VM.
#[derive(Debug)]
pub struct LoweredSlice {
    pub stmts: Vec<Stmt>,
    pub code: CodeBlock,
}

/// One executable unit of a filter's packet step.
#[derive(Debug)]
pub enum LoweredStep {
    /// Straight-line statements, a foreach atom, or a reconstituted
    /// conditional foreach.
    Slice(LoweredSlice),
    /// Filtering-cut condition probe (fills the `__pass` mask).
    Select(LoweredSlice),
    /// Guarded body run per passing point, bound to `var`.
    Body { var: String, body: LoweredSlice },
}

/// Lower the plan's lifecycle slices and every filter's atoms.
fn lower_filters(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    filters: &[FilterSpec],
) -> LoweredPlan {
    let tp = &np.typed;
    let prog = ProgramCode::lower(tp);
    let slice = |stmts: Vec<Stmt>| LoweredSlice {
        code: prog.lower_slice(tp, &np.class, &stmts),
        stmts,
    };
    let mut steps = Vec::with_capacity(filters.len());
    let mut replicated = Vec::with_capacity(filters.len());
    let mut prologue = Vec::with_capacity(filters.len());
    for f in filters {
        prologue.push(slice(
            f.prologue.iter().map(|&i| np.prologue[i].clone()).collect(),
        ));
        replicated.push(if f.replicated_decls.is_empty() {
            None
        } else {
            Some(slice(f.replicated_decls.clone()))
        });
        let mut list = Vec::new();
        let atoms = &f.atoms;
        let mut k = 0usize;
        while k < atoms.len() {
            let a = atoms[k];
            match &graph.atoms[a].code {
                AtomCode::Straight(ss) => list.push(LoweredStep::Slice(slice(ss.clone()))),
                AtomCode::Foreach(s) => list.push(LoweredStep::Slice(slice(vec![s.clone()]))),
                AtomCode::CondSelect {
                    var,
                    domain,
                    cond,
                    cond_id,
                } => {
                    // Same-filter body? Reconstitute the conditional foreach.
                    let body_here = k + 1 < atoms.len()
                        && matches!(&graph.atoms[atoms[k+1]].code, AtomCode::CondBody { cond_id: c2, .. } if c2 == cond_id);
                    if body_here {
                        let AtomCode::CondBody { body, .. } = &graph.atoms[atoms[k + 1]].code
                        else {
                            unreachable!("checked above");
                        };
                        let merged = reconstitute(var, domain, cond, body);
                        list.push(LoweredStep::Slice(slice(vec![merged])));
                        k += 2;
                        continue;
                    }
                    // Cut here: evaluate the condition per point.
                    list.push(LoweredStep::Select(slice(select_probe(var, domain, cond))));
                }
                AtomCode::CondBody { var, body, .. } => {
                    list.push(LoweredStep::Body {
                        var: var.clone(),
                        body: slice(body.stmts.clone()),
                    });
                }
            }
            k += 1;
        }
        steps.push(list);
    }
    LoweredPlan {
        prologue,
        bounds: slice(bounds_probe(np)),
        epilogue: slice(np.epilogue.clone()),
        prog,
        steps,
        replicated,
    }
}

impl FilterPlan {
    /// Human-readable summary (which atoms run where, what crosses where).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for f in &self.filters {
            let labels: Vec<&str> = f
                .atoms
                .iter()
                .map(|a| self.graph.atoms[*a].label.as_str())
                .collect();
            let _ = writeln!(
                s,
                "filter {} on C{}: [{}]",
                f.name,
                f.unit + 1,
                labels.join(", ")
            );
            let _ = writeln!(
                s,
                "  starts {} of {} prologue statements; holds [{}]; adopts [{}]; {}",
                f.prologue.len(),
                self.np.prologue.len(),
                f.holds.join(", "),
                f.adopts.join(", "),
                if f.needs_host {
                    "builds the host env"
                } else {
                    "no host env"
                }
            );
        }
        for (l, lay) in self.layouts.iter().enumerate() {
            let places: Vec<String> = lay.entries().map(|e| e.place.to_string()).collect();
            let _ = writeln!(
                s,
                "link L{}: {} {}",
                l + 1,
                places.join(", "),
                if lay.filtered.is_some() {
                    "(filtered)"
                } else {
                    ""
                }
            );
        }
        s
    }
}

/// Build the filter plan for a decomposition over `m` units.
pub fn build_plan(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    analysis: &ChainAnalysis,
    decomposition: &Decomposition,
    m: usize,
) -> CompileResult<FilterPlan> {
    let n_tasks = decomposition.unit_of.len();
    if n_tasks != graph.atoms.len() + 1 {
        return Err(CompileError::new(format!(
            "decomposition covers {} tasks but the chain has {} atoms (+1 virtual source)",
            n_tasks,
            graph.atoms.len()
        )));
    }

    // Atoms per unit (task i ↦ atom i-1).
    let mut filters: Vec<FilterSpec> = (0..m)
        .map(|j| FilterSpec {
            unit: j,
            name: format!("f{}", j + 1),
            atoms: Vec::new(),
            replicated_decls: Vec::new(),
            holds: Vec::new(),
            adopts: Vec::new(),
            prologue: Vec::new(),
            needs_host: false,
        })
        .collect();
    for (task, &unit) in decomposition.unit_of.iter().enumerate().skip(1) {
        if unit >= m {
            return Err(CompileError::new(
                "assignment references a unit beyond the pipeline",
            ));
        }
        filters[unit].atoms.push(task - 1);
    }

    // Per-filter Cons (for layout first-consumer classification), plus the
    // epilogue's consumption folded into the last filter.
    let mut filter_cons: Vec<PlaceSet> = Vec::with_capacity(m);
    for f in &filters {
        let mut set = PlaceSet::new();
        for &a in &f.atoms {
            set.extend(&analysis.atom_sets[a].cons);
        }
        filter_cons.push(set);
    }
    if let Ok(ep) = crate::gencons::analyze_stmts(np, &np.epilogue) {
        filter_cons[m - 1].extend(&ep.cons);
    }

    // Layouts per link.
    let carried = decomposition.carried_task(m);
    let mut layouts = Vec::with_capacity(m.saturating_sub(1));
    let empty = PlaceSet::new();
    for (l, &t) in carried.iter().enumerate() {
        // t == 0: raw input crosses. t == n+1 (all atoms upstream): nothing
        // crosses per packet — the paper's ReqComm(end) = ∅; results travel
        // through the reduction channel at finalize.
        let set = if t == 0 {
            &analysis.input_set
        } else {
            analysis.reqcomm.get(t - 1).unwrap_or(&empty)
        };
        let filtered = if t >= 1 && t - 1 < graph.atoms.len() {
            match (&graph.boundaries.get(t - 1), &graph.atoms[t - 1].code) {
                (Some(b), AtomCode::CondSelect { cond_id, .. })
                    if b.kind == BoundaryKind::CondFilter =>
                {
                    Some(*cond_id)
                }
                _ => None,
            }
        } else {
            None
        };
        let layout = compute_layout(np, set, &filter_cons[l + 1..], l + 1, filtered)?;
        layouts.push(layout);
    }

    // Replicated allocations: roots a filter's atoms touch that are neither
    // received, locally declared, prologue/extern, nor loop vars.
    let decls = collect_decls(graph);
    for (j, f) in filters.iter_mut().enumerate() {
        let received: HashSet<String> = if j == 0 {
            HashSet::new()
        } else {
            layouts[j - 1]
                .entries()
                .map(|e| e.place.root.clone())
                .collect()
        };
        let mut atoms = Mentions::default();
        for &a in &f.atoms {
            atoms.atom(&graph.atoms[a].code);
        }
        for root in atoms.used {
            if received.contains(root)
                || atoms.declared.contains(root)
                || analysis.prologue_roots.contains(root)
                || analysis.reduction_roots.contains(root)
                || np.typed.symbols.externs.contains_key(root)
                || root == np.pkt_var
            {
                continue;
            }
            if let Some(d) = decls.get(root) {
                if !f.replicated_decls.iter().any(|s| stmt_declares(s, root)) {
                    f.replicated_decls.push(d.clone());
                }
            }
        }
    }

    assign_unit_needs(np, graph, analysis, &layouts, &mut filters);
    let lowered = Arc::new(lower_filters(np, graph, &filters));
    Ok(FilterPlan {
        np: np.clone(),
        graph: graph.clone(),
        analysis: analysis.clone(),
        decomposition: decomposition.clone(),
        m,
        filters,
        layouts,
        lowered,
    })
}

fn stmt_declares(s: &Stmt, name: &str) -> bool {
    matches!(&s.kind, StmtKind::VarDecl { name: n, .. } if n == name)
}

/// All VarDecl statements in the chain, by name (for replication).
fn collect_decls(graph: &BoundaryGraph) -> HashMap<String, Stmt> {
    let mut out = HashMap::new();
    for atom in &graph.atoms {
        let stmts: Vec<&Stmt> = match &atom.code {
            AtomCode::Straight(ss) => ss.iter().collect(),
            AtomCode::Foreach(s) => vec![s],
            _ => vec![],
        };
        for s in stmts {
            s.visit(&mut |st| {
                if let StmtKind::VarDecl { name, .. } = &st.kind {
                    out.entry(name.clone()).or_insert_with(|| st.clone());
                }
            });
        }
    }
    out
}

/// What a piece of code mentions, nested statements included.
#[derive(Default)]
struct Mentions<'a> {
    /// Names it declares: locals and loop variables.
    declared: HashSet<&'a str>,
    /// Roots it reads or writes, in visit order.
    used: Vec<&'a str>,
    /// Methods it calls, by name.
    calls: HashSet<&'a str>,
}

impl<'a> Mentions<'a> {
    fn of_stmts(stmts: impl IntoIterator<Item = &'a Stmt>) -> Self {
        let mut m = Mentions::default();
        for s in stmts {
            m.stmt(s);
        }
        m
    }

    fn atom(&mut self, code: &'a AtomCode) {
        match code {
            AtomCode::Straight(ss) => ss.iter().for_each(|s| self.stmt(s)),
            AtomCode::Foreach(s) => self.stmt(s),
            AtomCode::CondSelect {
                var, domain, cond, ..
            } => {
                self.declared.insert(var);
                self.expr(cond);
                self.expr(domain);
            }
            AtomCode::CondBody { var, body, .. } => {
                self.declared.insert(var);
                self.block(body);
            }
        }
    }

    fn block(&mut self, b: &'a Block) {
        b.stmts.iter().for_each(|s| self.stmt(s));
    }

    /// `s`'s own names, then its nested statements' (the order of
    /// [`Stmt::visit`]).
    fn stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::VarDecl { name, init, .. } => {
                self.declared.insert(name);
                if let Some(e) = init {
                    self.expr(e);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                self.expr(value);
                match target {
                    LValue::Var(n) => self.used.push(n),
                    LValue::Field(b, _) => self.expr(b),
                    LValue::Index(b, i) => {
                        self.expr(b);
                        self.expr(i);
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond);
                self.block(then_blk);
                if let Some(b) = else_blk {
                    self.block(b);
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(c) = cond {
                    self.expr(c);
                }
                for s in init.iter().chain(step) {
                    self.stmt(s);
                }
                self.block(body);
            }
            StmtKind::Foreach { var, domain, body } => {
                self.declared.insert(var);
                self.expr(domain);
                self.block(body);
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                self.declared.insert(var);
                self.expr(domain);
                self.expr(num_packets);
                self.block(body);
            }
            StmtKind::Return(Some(e)) | StmtKind::Expr(e) => self.expr(e),
            StmtKind::Block(b) => self.block(b),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }

    fn expr(&mut self, e: &'a Expr) {
        match &e.kind {
            ExprKind::Var(n) => self.used.push(n),
            ExprKind::Field(x, _) | ExprKind::Unary(_, x) | ExprKind::NewArray(_, x) => {
                self.expr(x)
            }
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) | ExprKind::DomainLit(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Ternary(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Call { recv, method, args } => {
                self.calls.insert(method);
                if let Some(r) = recv {
                    self.expr(r);
                }
                for a in args {
                    self.expr(a);
                }
            }
            _ => {}
        }
    }

    /// Every name mentioned, plus the externs each called method may
    /// name ([`callee_externs`]).
    fn names(self, callees: &HashMap<&str, HashSet<&'a str>>) -> HashSet<&'a str> {
        let mut out = self.declared;
        out.extend(self.used);
        for c in &self.calls {
            out.extend(callees.get(c).into_iter().flatten());
        }
        out
    }
}

/// The externs each method name may name, transitively through the
/// methods it calls. A call dispatches on the runtime class, so a name
/// stands for every class's method of that name.
fn callee_externs(tp: &TypedProgram) -> HashMap<&str, HashSet<&str>> {
    let mut direct: HashMap<&str, (HashSet<&str>, HashSet<&str>)> = HashMap::new();
    for c in &tp.program.classes {
        for m in &c.methods {
            let body = Mentions::of_stmts(&m.body.stmts);
            let (externs, calls) = direct.entry(&m.name).or_default();
            let named = body.used.into_iter().chain(body.declared);
            externs.extend(named.filter(|n| tp.symbols.externs.contains_key(*n)));
            calls.extend(body.calls);
        }
    }
    let mut out: HashMap<&str, HashSet<&str>> = direct
        .iter()
        .map(|(name, (externs, _))| (*name, externs.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, (_, calls)) in &direct {
            let reached: Vec<&str> = calls
                .iter()
                .filter_map(|c| out.get(c))
                .flatten()
                .copied()
                .collect();
            let own = out.get_mut(name).expect("every method name has an entry");
            for e in reached {
                changed |= own.insert(e);
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Keep every statement that mentions a needed name, making its names
/// needed too, until nothing changes.
fn close_slice<'a>(
    stmt_names: &[HashSet<&'a str>],
    needed: &mut HashSet<&'a str>,
    kept: &mut [bool],
) {
    loop {
        let mut changed = false;
        for (i, names) in stmt_names.iter().enumerate() {
            if !kept[i] && names.iter().any(|n| needed.contains(n)) {
                kept[i] = true;
                needed.extend(names);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Fill each filter's reduction holders, prologue slice and host need
/// (module docs: *Per-unit starts*, *Reduction finalization*, *Host
/// needs*).
fn assign_unit_needs(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    analysis: &ChainAnalysis,
    layouts: &[PackLayout],
    filters: &mut [FilterSpec],
) {
    let m = filters.len();
    let last = m - 1;
    let callees = callee_externs(&np.typed);
    let reductions = &analysis.reduction_roots;
    let probe = bounds_probe(np);

    // The names each unit's own code mentions, and the roots its atoms
    // name (which decide the holders). Packing is code too: a unit needs
    // the roots it packs (the source packs extern arrays from the host)
    // and the section bounds of the links it unpacks and packs.
    let mut code: Vec<HashSet<&str>> = Vec::with_capacity(m);
    let mut atom_roots: Vec<HashSet<&str>> = Vec::with_capacity(m);
    for (j, f) in filters.iter().enumerate() {
        let mut atoms = Mentions::default();
        for &a in &f.atoms {
            atoms.atom(&graph.atoms[a].code);
        }
        atom_roots.push(atoms.used.iter().copied().collect());
        let mut names = atoms.names(&callees);
        names.extend(Mentions::of_stmts(&f.replicated_decls).names(&callees));
        let unpacked = j.checked_sub(1).and_then(|l| layouts.get(l));
        let links = unpacked.map(|l| (l, false));
        for (layout, packed) in links.into_iter().chain(layouts.get(j).map(|l| (l, true))) {
            for e in layout.entries() {
                if packed {
                    names.insert(&e.place.root);
                }
                if let Sectioning::Range(sec) = &e.place.sect {
                    let bounds = sec.lo.terms.iter().chain(&sec.hi.terms);
                    names.extend(bounds.map(|(n, _)| n.as_str()));
                }
            }
        }
        code.push(names);
    }
    code[0].extend(Mentions::of_stmts(&probe).names(&callees));
    code[last].extend(Mentions::of_stmts(&np.epilogue).names(&callees));

    let mut roots: Vec<&str> = reductions.iter().map(String::as_str).collect();
    roots.sort_unstable();
    let mut holds: Vec<Vec<&str>> = vec![Vec::new(); m];
    for root in roots {
        let named: Vec<usize> = (0..m).filter(|&j| atom_roots[j].contains(root)).collect();
        for j in if named.is_empty() { vec![last] } else { named } {
            holds[j].push(root);
        }
    }
    let adopts: Vec<Vec<&str>> = (0..m)
        .map(|j| {
            let upstream = holds[..j].iter().flatten().copied();
            let mut roots: Vec<&str> = upstream.filter(|r| !holds[j].contains(r)).collect();
            roots.sort_unstable();
            roots.dedup();
            roots
        })
        .collect();

    // Each unit's slice, then the statements no unit keeps on unit 0.
    let stmt_names: Vec<HashSet<&str>> = np
        .prologue
        .iter()
        .map(|s| Mentions::of_stmts([s]).names(&callees))
        .collect();
    let n = stmt_names.len();
    let seed = |j: usize| -> HashSet<&str> {
        let own = |name: &&str| !reductions.contains(*name) || holds[j].contains(name);
        code[j].iter().copied().filter(own).collect()
    };
    let mut kept: Vec<Vec<bool>> = (0..m)
        .map(|j| {
            let mut keep = vec![false; n];
            close_slice(&stmt_names, &mut seed(j), &mut keep);
            keep
        })
        .collect();
    // An orphan shares no name with any kept statement (the unit that
    // kept one would have kept the orphan too), so adding the orphans
    // needs no second closure.
    let orphans: Vec<usize> = (0..n).filter(|&i| kept.iter().all(|k| !k[i])).collect();
    for i in orphans {
        kept[0][i] = true;
    }

    let reduce = callees.get("reduce");
    let needs_host: Vec<bool> = (0..m)
        .map(|j| {
            let slice = (0..n).filter(|&i| kept[j][i]).flat_map(|i| &stmt_names[i]);
            let merges = !holds[j].is_empty() || !adopts[j].is_empty();
            let merge = reduce.filter(|_| merges).into_iter().flatten();
            let mut names = code[j].iter().chain(slice).chain(merge);
            names.any(|name| np.typed.symbols.externs.contains_key(*name))
        })
        .collect();
    let owned = |names: &[&str]| names.iter().map(|r| r.to_string()).collect();
    for (j, f) in filters.iter_mut().enumerate() {
        f.holds = owned(&holds[j]);
        f.adopts = owned(&adopts[j]);
        f.prologue = (0..n).filter(|&i| kept[j][i]).collect();
        f.needs_host = needs_host[j];
    }
}

// ---------------------------------------------------------------------------
// Path-A execution

/// Per-filter execution driver shared by the sequential oracle runner here
/// and the threaded DataCutter executor in `cgp-core`.
///
/// Each pipeline unit's lifecycle is: start (run the unit's prologue
/// slice into its own state), packet steps, reduction merges or
/// adoptions, and — at the final unit — the epilogue. A unit starts on
/// first use (a step, a merge, its epilogue, or
/// [`FilterStepper::loop_bounds`] for unit 0), or explicitly through the
/// idempotent [`FilterStepper::start`]; so a runtime filter copy that
/// drives only its own unit runs only its own slice. Every stage runs on
/// the engine [`FilterStepper::with_vm`] selected.
pub struct FilterStepper<'p> {
    pub plan: &'p FilterPlan,
    /// Persistent per-unit state (prologue results, reduction copies);
    /// `None` until the unit starts.
    state: Vec<Option<HashMap<String, Value>>>,
    /// The reduction roots each unit holds or has adopted: the ones it
    /// ships and merges into.
    roots: Vec<HashSet<String>>,
    /// Scalar extern config visible to every filter.
    config: HashMap<String, Value>,
    /// Full host bindings (arrays included) — only the source filter and
    /// the prologue see these, which keeps the oracle honest about data
    /// placement.
    source_env: HashMap<String, Value>,
    /// Run on the register VM instead of the tree-walker. Off by default
    /// so [`run_plan_sequential`] stays an independent interpreter-backed
    /// oracle; the threaded executor in `cgp-core` always turns it on.
    use_vm: bool,
    /// Per-unit section environment (scalar config symbols); unit `j`'s
    /// also holds the receive arrays its input is unpacked into.
    envs: Vec<RuntimeEnv>,
}

/// What a filter step starts from.
struct PacketFrame {
    /// Globals the filter may read.
    globals: HashMap<String, Value>,
    /// Packet-local bindings.
    vars: HashMap<String, Value>,
    /// Passing indices received with the packet (filtering cuts).
    selection: Option<Vec<i64>>,
}

/// The statement executor of one lifecycle stage.
enum Engine<'p> {
    Tree { interp: Interp<'p>, class: &'p str },
    Vm(Vm<'p>),
}

impl Engine<'_> {
    /// Run `slice` against `vars`: its AST on the tree-walker, its
    /// lowering on the VM.
    fn exec(
        &mut self,
        slice: &LoweredSlice,
        vars: &mut HashMap<String, Value>,
    ) -> CompileResult<()> {
        match self {
            Engine::Tree { interp, class } => {
                interp.exec_stmts_with_vars(class, &slice.stmts, vars)
            }
            Engine::Vm(vm) => vm.exec_slice(&slice.code, vars),
        }
        .map_err(CompileError::from)
    }

    /// Merge `partial` into `own` through its class's `reduce` method.
    fn reduce(&mut self, own: Rc<RefCell<ObjectVal>>, partial: Value) -> CompileResult<()> {
        let class = own.borrow().class().to_string();
        match self {
            Engine::Tree { interp, .. } => {
                interp.call_method(&class, "reduce", Some(own), vec![partial])
            }
            Engine::Vm(vm) => vm.call_method(&class, "reduce", Some(own), vec![partial]),
        }
        .map(drop)
        .map_err(CompileError::from)
    }

    /// Captured `print` output.
    fn output(self) -> Vec<String> {
        match self {
            Engine::Tree { interp, .. } => interp.output,
            Engine::Vm(vm) => vm.output,
        }
    }
}

impl<'p> FilterStepper<'p> {
    /// Bind the host's extern values. No prologue runs here: each unit
    /// starts on first use (see the type docs). Externs the host leaves
    /// unbound stay unbound: a unit that reads one fails there with the
    /// engines' unknown-variable diagnostic.
    pub fn new(plan: &'p FilterPlan, host: &HostEnv) -> CompileResult<Self> {
        let tp = &plan.np.typed;
        let mut config = HashMap::new();
        for e in &tp.program.externs {
            match host.values.get(&e.name) {
                Some(v) if !matches!(e.ty, Type::Array(_)) => {
                    config.insert(e.name.clone(), v.clone());
                }
                _ => {}
            }
        }
        let mut env = RuntimeEnv::new(&plan.np.pkt_var);
        for (k, v) in &config {
            if let Value::Int(i) = v {
                env.symbols.insert(k.clone(), *i);
            }
        }
        Ok(FilterStepper {
            plan,
            state: vec![None; plan.m],
            roots: plan
                .filters
                .iter()
                .map(|f| f.holds.iter().cloned().collect())
                .collect(),
            config,
            source_env: host.values.clone(),
            use_vm: false,
            envs: vec![env; plan.m],
        })
    }

    /// Select the engine for every lifecycle stage — prologue, loop
    /// bounds, packet steps, reduction merges and epilogue: the register
    /// VM (`true`) or the tree-walking interpreter (`false`, the
    /// default). Select it before the first unit starts.
    pub fn with_vm(mut self, on: bool) -> Self {
        self.use_vm = on;
        self
    }

    /// A fresh executor over `globals` on the selected engine.
    fn engine(&self, globals: HashMap<String, Value>) -> Engine<'p> {
        let plan = self.plan;
        let host = HostEnv { values: globals };
        if self.use_vm {
            Engine::Vm(Vm::new(&plan.lowered.prog, host))
        } else {
            Engine::Tree {
                interp: Interp::new(&plan.np.typed, host),
                class: &plan.np.class,
            }
        }
    }

    /// Start unit `j`: run its prologue slice against the full host env
    /// into the unit's own state. Idempotent — a started unit is left as
    /// it is; every other entry point starts its unit on first use.
    pub fn start(&mut self, j: usize) -> CompileResult<()> {
        if self.state[j].is_some() {
            return Ok(());
        }
        let mut vars = HashMap::new();
        self.engine(self.source_env.clone())
            .exec(&self.plan.lowered.prologue[j], &mut vars)?;
        self.state[j] = Some(vars);
        Ok(())
    }

    /// Unit `j`'s state; the unit must have started.
    fn started(&self, j: usize) -> &HashMap<String, Value> {
        self.state[j].as_ref().unwrap_or_else(|| {
            panic!(
                "unit {} ({j}) never started: call start({j}) or step it first",
                self.plan.filters[j].name
            )
        })
    }

    /// Evaluate the pipelined loop's domain and packet count using unit
    /// 0's post-prologue state (starting unit 0 if needed).
    pub fn loop_bounds(&mut self) -> CompileResult<((i64, i64), i64)> {
        self.start(0)?;
        let mut vars = self.started(0).clone();
        self.engine(self.source_env.clone())
            .exec(&self.plan.lowered.bounds, &mut vars)?;
        let Some(Value::Domain(lo, hi)) = vars.get("__dom").cloned() else {
            return Err(CompileError::new("could not evaluate PipelinedLoop domain"));
        };
        let Some(Value::Int(np_)) = vars.get("__np").cloned() else {
            return Err(CompileError::new("could not evaluate num_packets"));
        };
        if np_ <= 0 {
            return Err(CompileError::new("num_packets must be positive"));
        }
        Ok(((lo, hi), np_))
    }

    /// Filter `j`'s starting frame for packet `(lo, hi)`.
    fn bind_packet(
        &self,
        j: usize,
        (lo, hi): (i64, i64),
        input: Option<&[u8]>,
    ) -> CompileResult<PacketFrame> {
        let plan = self.plan;
        // Visible globals: full host env at the source, config-only
        // downstream (so a miscompiled plan fails loudly instead of
        // silently reading data it should have received).
        let globals = if j == 0 {
            self.source_env.clone()
        } else {
            self.config.clone()
        };
        // Packet-local bindings: persistent state + unpacked buffer.
        let mut vars: HashMap<String, Value> = self.started(j).clone();
        let mut selection: Option<Vec<i64>> = None;
        if j > 0 {
            let input = input
                .ok_or_else(|| CompileError::new(format!("filter {j} expected an input buffer")))?;
            let un = unpack(&plan.layouts[j - 1], &self.envs[j], input)?;
            selection = un.selection;
            vars.extend(un.vars);
        }
        vars.insert(plan.np.pkt_var.clone(), Value::Domain(lo, hi));
        if j == 0 {
            // The source filter owns the extern data arrays; make them
            // packable/bindable alongside the state.
            for (name, ty) in &plan.np.typed.symbols.externs {
                if matches!(ty, Type::Array(_)) {
                    if let Some(v) = self.source_env.get(name) {
                        vars.insert(name.clone(), v.clone());
                    }
                }
            }
        }
        Ok(PacketFrame {
            globals,
            vars,
            selection,
        })
    }

    /// Pack filter `j`'s output for downstream (`None` at the final
    /// filter).
    fn emit(
        &self,
        j: usize,
        vars: &HashMap<String, Value>,
        pkt: (i64, i64),
        selection: Option<&[i64]>,
    ) -> CompileResult<Option<Vec<u8>>> {
        if j + 1 == self.plan.m {
            return Ok(None);
        }
        let layout = &self.plan.layouts[j];
        pack(layout, vars, &self.envs[j], pkt, selection).map(Some)
    }

    /// Run filter `j` for packet `(lo, hi)`. `input` is the buffer received
    /// from upstream (`None` for the source filter); the result is the
    /// buffer to send downstream (`None` for the final filter).
    pub fn step(
        &mut self,
        j: usize,
        pkt: (i64, i64),
        input: Option<&[u8]>,
    ) -> CompileResult<Option<Vec<u8>>> {
        self.start(j)?;
        let lowered = &self.plan.lowered;
        let lo = pkt.0;
        let PacketFrame {
            globals,
            mut vars,
            mut selection,
        } = self.bind_packet(j, pkt, input)?;
        let mut engine = self.engine(globals);

        // Replicated packet-local allocations.
        if let Some(decls) = &lowered.replicated[j] {
            engine.exec(decls, &mut vars)?;
        }

        for step in &lowered.steps[j] {
            match step {
                LoweredStep::Slice(slice) => engine.exec(slice, &mut vars)?,
                LoweredStep::Select(probe) => {
                    // Cut here: collect the passing absolute indices.
                    let mut pv = vars.clone();
                    engine.exec(probe, &mut pv)?;
                    let mut passing = Vec::new();
                    if let Some(Value::Array(mask)) = pv.get("__pass") {
                        for (off, v) in mask.borrow().iter().enumerate() {
                            if matches!(v, Value::Bool(true)) {
                                passing.push(lo + off as i64);
                            }
                        }
                    }
                    selection = Some(passing);
                }
                LoweredStep::Body { var, body } => {
                    // Executed for passing points only (received or
                    // locally produced selection).
                    let sel = selection
                        .clone()
                        .ok_or_else(|| CompileError::new("CondBody without a selection list"))?;
                    for i in sel {
                        vars.insert(var.clone(), Value::Int(i));
                        engine.exec(body, &mut vars)?;
                    }
                    vars.remove(var);
                }
            }
        }

        // Reduction-root mutations are Rc-shared, so already visible in
        // state — nothing to copy back. Pack for downstream.
        self.emit(j, &vars, pkt, selection.as_deref())
    }

    /// Filter `j`'s bindings of the reduction roots it holds or has
    /// adopted (for shipping at end-of-work in distributed executions);
    /// empty when it has none.
    ///
    /// # Panics
    ///
    /// If unit `j` never started: its state does not exist yet, and an
    /// empty map here would silently drop it downstream.
    pub fn reduction_state(&self, j: usize) -> HashMap<String, Value> {
        let state = self.started(j);
        self.roots[j]
            .iter()
            .filter_map(|r| state.get(r).map(|v| (r.clone(), v.clone())))
            .collect()
    }

    /// Fold an upstream filter's reduction partials into filter `j`: a
    /// root `j` has (holds or adopted before) merges through its
    /// object's `reduce` method; a root it lacks adopts the partial, with
    /// no call. Checkpoint restore goes through here too.
    pub fn merge_reduction(
        &mut self,
        j: usize,
        partial: &HashMap<String, Value>,
    ) -> CompileResult<()> {
        self.start(j)?;
        let mut engine = None;
        for (root, part) in partial {
            let state = self.state[j].as_mut().expect("started above");
            match state.get(root) {
                Some(Value::Object(own)) if self.roots[j].contains(root) => {
                    let own = Rc::clone(own);
                    engine
                        .get_or_insert_with(|| self.engine(self.config.clone()))
                        .reduce(own, part.clone())?;
                }
                _ => {
                    state.insert(root.clone(), part.clone());
                    self.roots[j].insert(root.clone());
                }
            }
        }
        Ok(())
    }

    /// Run the epilogue against filter `j`'s state (after all partials have
    /// been merged into it). Returns the captured `print` output.
    pub fn epilogue_at(&mut self, j: usize) -> CompileResult<Vec<String>> {
        self.start(j)?;
        let mut engine = self.engine(self.config.clone());
        let mut vars = self.started(j).clone();
        engine.exec(&self.plan.lowered.epilogue, &mut vars)?;
        Ok(engine.output())
    }

    /// Start every unit and pass each unit's reduction state down the
    /// chain into the next ([`FilterStepper::merge_reduction`], as the
    /// runtime does), then run the epilogue at the last unit with the
    /// full host env as globals. Returns the captured `print` output.
    pub fn finalize(&mut self, host: &HostEnv) -> CompileResult<Vec<String>> {
        let last = self.plan.m - 1;
        for j in 0..last {
            self.start(j)?;
            let partial = self.reduction_state(j);
            self.merge_reduction(j + 1, &partial)?;
        }
        self.start(last)?;
        let mut engine = self.engine(host.values.clone());
        let mut vars = self.started(last).clone();
        engine.exec(&self.plan.lowered.epilogue, &mut vars)?;
        Ok(engine.output())
    }
}

/// `__dom = <domain>; __np = <num_packets>;` — the loop-bounds probe.
fn bounds_probe(np: &NormalizedPipeline) -> Vec<Stmt> {
    let mut ids = NodeIdGen::above(&np.typed.program);
    let mut decl = |name: &str, ty: Type, init: &Expr| {
        Stmt::new(
            ids.fresh(),
            Span::synthetic(),
            StmtKind::VarDecl {
                name: name.into(),
                ty,
                init: Some(init.clone()),
            },
        )
    };
    vec![
        decl("__dom", Type::RectDomain(1), &np.domain),
        decl("__np", Type::Int, &np.num_packets),
    ]
}

/// `foreach (var in domain) { if (cond) { body } }` — rebuilt when both
/// halves share a filter.
fn reconstitute(var: &str, domain: &Expr, cond: &Expr, body: &Block) -> Stmt {
    let iff = Stmt::new(
        NodeId(u32::MAX - 2),
        Span::synthetic(),
        StmtKind::If {
            cond: cond.clone(),
            then_blk: body.clone(),
            else_blk: None,
        },
    );
    Stmt::new(
        NodeId(u32::MAX - 3),
        Span::synthetic(),
        StmtKind::Foreach {
            var: var.to_string(),
            domain: domain.clone(),
            body: Block::new(vec![iff]),
        },
    )
}

/// Statements computing `__pass[i - domain.lo()] = cond` for every point.
fn select_probe(var: &str, domain: &Expr, cond: &Expr) -> Vec<Stmt> {
    let mk = |kind| Stmt::new(NodeId(u32::MAX - 4), Span::synthetic(), kind);
    let size = Expr::new(
        Span::synthetic(),
        ExprKind::Call {
            recv: Some(Box::new(domain.clone())),
            method: "size".into(),
            args: vec![],
        },
    );
    let lo = Expr::new(
        Span::synthetic(),
        ExprKind::Call {
            recv: Some(Box::new(domain.clone())),
            method: "lo".into(),
            args: vec![],
        },
    );
    let idx = Expr::new(
        Span::synthetic(),
        ExprKind::Binary(
            BinOp::Sub,
            Box::new(Expr::new(Span::synthetic(), ExprKind::Var(var.to_string()))),
            Box::new(lo),
        ),
    );
    vec![
        mk(StmtKind::VarDecl {
            name: "__pass".into(),
            ty: Type::array_of(Type::Bool),
            init: Some(Expr::new(
                Span::synthetic(),
                ExprKind::NewArray(Type::Bool, Box::new(size)),
            )),
        }),
        mk(StmtKind::Foreach {
            var: var.to_string(),
            domain: domain.clone(),
            body: Block::new(vec![mk(StmtKind::Assign {
                target: LValue::Index(
                    Box::new(Expr::new(Span::synthetic(), ExprKind::Var("__pass".into()))),
                    Box::new(idx),
                ),
                op: AssignOp::Set,
                value: cond.clone(),
            })]),
        }),
    ]
}

/// Run the whole plan single-threaded: every packet flows through all
/// filters with real buffer packing between them; reduction merge and
/// epilogue at the end. Returns the captured `print` output (compare with a
/// sequential interpreter run of the same program).
pub fn run_plan_sequential(plan: &FilterPlan, host: &HostEnv) -> CompileResult<Vec<String>> {
    let mut stepper = FilterStepper::new(plan, host)?;
    let ((dlo, dhi), n_packets) = stepper.loop_bounds()?;
    for (lo, hi) in split_domain(dlo, dhi, n_packets as usize) {
        let mut buf: Option<Vec<u8>> = None;
        for j in 0..plan.m {
            buf = stepper.step(j, (lo, hi), buf.as_deref())?;
        }
    }
    stepper.finalize(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{chain_costs, CostEnv};
    use crate::decompose::{decompose_dp, Problem};
    use crate::graph::build_graph;
    use crate::normalize::normalize;
    use crate::reqcomm::analyze_chain;
    use cgp_lang::frontend;
    use cgp_lang::interp::Interp as SeqInterp;

    /// Compile a source with a fixed decomposition style for `m` units.
    fn make_plan(src: &str, m: usize, decomp: DecompStyle) -> FilterPlan {
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        let d = match decomp {
            DecompStyle::Default => Decomposition::default_style(n_tasks, m),
            DecompStyle::Spread => {
                // round-robin-ish monotone split of atoms over units
                let mut unit_of = vec![0usize];
                for i in 0..g.atoms.len() {
                    unit_of.push(((i + 1) * m / n_tasks).min(m - 1));
                }
                Decomposition {
                    unit_of,
                    cost: f64::NAN,
                }
            }
            DecompStyle::Dp => {
                let env = CostEnv::for_packet(64).with_symbol("n", 256);
                let costs = chain_costs(&np, &g, &ca.reqcomm, &env);
                let input_vol = crate::cost::volume_bytes(&np, &ca.input_set, &env, None);
                let problem = Problem::from_chain(&costs, input_vol);
                let penv = crate::cost::PipelineEnv::uniform(m, 1e6, 1e5, 1e-5);
                decompose_dp(&problem, &penv)
            }
        };
        build_plan(&np, &g, &ca, &d, m).unwrap()
    }

    enum DecompStyle {
        Default,
        Spread,
        Dp,
    }

    fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
        let tp = frontend(src).unwrap();
        let mut it = SeqInterp::new(&tp, host.clone());
        it.run_main().unwrap();
        it.output
    }

    const BASE: &str = r#"
        extern int n;
        extern double[] data;
        runtime_define int num_packets;
        class Acc implements Reducinterface {
            double total;
            void reduce(Acc other) { total = total + other.total; }
            void add(double x) { total = total + x; }
        }
        class A {
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; num_packets) {
                    foreach (i in pkt) {
                        double v = data[i] * 2.0 + 1.0;
                        if (v > 50.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    fn base_host(n: i64, num_packets: i64) -> HostEnv {
        let data = Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
            (0..n)
                .map(|i| Value::Double((i * 7 % 100) as f64))
                .collect(),
        )));
        HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(num_packets))
            .bind("data", data)
    }

    #[test]
    fn plan_structure_covers_all_atoms() {
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        let total: usize = plan.filters.iter().map(|f| f.atoms.len()).sum();
        assert_eq!(total, plan.graph.atoms.len());
        assert_eq!(plan.layouts.len(), 2);
        assert!(!plan.describe().is_empty());
    }

    #[test]
    fn sequential_plan_matches_oracle_default() {
        let host = base_host(100, 5);
        let plan = make_plan(BASE, 3, DecompStyle::Default);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn sequential_plan_matches_oracle_spread() {
        let host = base_host(100, 4);
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn sequential_plan_matches_oracle_dp() {
        let host = base_host(128, 8);
        let plan = make_plan(BASE, 3, DecompStyle::Dp);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn works_across_pipeline_sizes_and_packet_counts() {
        for m in 1..=4 {
            for np_ in [1, 3, 7] {
                let host = base_host(64, np_);
                let plan = make_plan(BASE, m, DecompStyle::Spread);
                let out = run_plan_sequential(&plan, &host).unwrap();
                assert_eq!(out, oracle(BASE, &host), "m={m} packets={np_}");
            }
        }
    }

    #[test]
    fn filtering_cut_reduces_buffer_volume() {
        // Compare buffer sizes: a plan cut exactly at the filtering boundary
        // (upstream evaluates the condition) should ship fewer bytes than a
        // plan cutting before the select when selectivity < 1.
        let src = r#"
            extern int n;
            extern double[] data;
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) {
                        double v = data[i];
                        if (v > 90.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            } }
        "#;
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        // cond boundary index:
        let (_, cond_b) = g.cond_boundaries[0];
        // Plan A: cut exactly at the filtering boundary (atoms ≤ cond_b on
        // unit 0, rest on unit 1).
        let mut unit_of = vec![0usize; n_tasks];
        for (t, u) in unit_of.iter_mut().enumerate().skip(1) {
            *u = if t - 1 <= cond_b { 0 } else { 1 };
        }
        let plan_a = build_plan(&np, &g, &ca, &Decomposition { unit_of, cost: 0.0 }, 2).unwrap();
        // Plan B: Default (everything downstream).
        let plan_b =
            build_plan(&np, &g, &ca, &Decomposition::default_style(n_tasks, 2), 2).unwrap();

        let host = base_host(100, 1);
        // Run one packet through filter 0 of each plan and compare buffers.
        let mut sa = FilterStepper::new(&plan_a, &host).unwrap();
        let buf_a = sa.step(0, (0, 99), None).unwrap().unwrap();
        let mut sb = FilterStepper::new(&plan_b, &host).unwrap();
        let buf_b = sb.step(0, (0, 99), None).unwrap().unwrap();
        assert!(
            buf_a.len() < buf_b.len() / 2,
            "filtered buffer {} vs raw {}",
            buf_a.len(),
            buf_b.len()
        );
        // And both plans still agree with the oracle.
        assert_eq!(
            run_plan_sequential(&plan_a, &host).unwrap(),
            oracle(src, &host)
        );
        assert_eq!(
            run_plan_sequential(&plan_b, &host).unwrap(),
            oracle(src, &host)
        );
    }

    /// [`run_plan_sequential`] with the stepper flipped onto the VM.
    fn run_plan_sequential_vm(plan: &FilterPlan, host: &HostEnv) -> CompileResult<Vec<String>> {
        let mut stepper = FilterStepper::new(plan, host)?.with_vm(true);
        let ((dlo, dhi), n_packets) = stepper.loop_bounds()?;
        for (lo, hi) in split_domain(dlo, dhi, n_packets as usize) {
            let mut buf: Option<Vec<u8>> = None;
            for j in 0..plan.m {
                buf = stepper.step(j, (lo, hi), buf.as_deref())?;
            }
        }
        stepper.finalize(host)
    }

    #[test]
    fn vm_stepper_matches_interpreter_stepper() {
        // Same plan, same packets, both engines — including filtering
        // cuts (Select/Body steps) and reconstituted conditionals.
        for m in 1..=4 {
            for np_ in [1, 3, 7] {
                let host = base_host(64, np_);
                let plan = make_plan(BASE, m, DecompStyle::Spread);
                let vm_out = run_plan_sequential_vm(&plan, &host).unwrap();
                let it_out = run_plan_sequential(&plan, &host).unwrap();
                assert_eq!(vm_out, it_out, "m={m} packets={np_}");
                assert_eq!(vm_out, oracle(BASE, &host), "m={m} packets={np_}");
            }
        }
    }

    #[test]
    fn units_start_on_their_own_once_and_lazily() {
        let host = base_host(100, 5);
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        let holder = plan
            .filters
            .iter()
            .position(|f| f.holds == ["acc"])
            .expect("one unit holds acc");
        assert_ne!(holder, 1, "unit 1 is the non-holder below");
        for vm in [false, true] {
            let mut s = FilterStepper::new(&plan, &host).unwrap().with_vm(vm);
            assert!(s.state.iter().all(Option::is_none), "new runs no prologue");
            s.start(1).unwrap();
            let started: Vec<bool> = s.state.iter().map(Option::is_some).collect();
            assert_eq!(started, [false, true, false], "start(1) starts unit 1 only");
            assert!(
                !s.state[1].as_ref().unwrap().contains_key("acc"),
                "a non-holder's slice does not build acc"
            );
            assert!(s.reduction_state(1).is_empty(), "so it has nothing to ship");
            s.loop_bounds().unwrap();
            let started: Vec<bool> = s.state.iter().map(Option::is_some).collect();
            assert_eq!(started, [true, true, false], "loop_bounds starts unit 0");
            s.start(holder).unwrap();
            let before = s.reduction_state(holder);
            s.start(holder).unwrap();
            let (Value::Object(a), Value::Object(b)) =
                (&before["acc"], &s.reduction_state(holder)["acc"])
            else {
                panic!("acc is an object");
            };
            assert!(Rc::ptr_eq(a, b), "a second start leaves the state alone");
        }
    }

    /// Drive `plan` as the runtime does: one stepper per unit, each
    /// bound to its own host (built only where the unit needs one), with
    /// buffers and reduction states handed down the chain.
    fn run_unit_by_unit(
        plan: &FilterPlan,
        host: &dyn Fn() -> HostEnv,
        vm: bool,
    ) -> CompileResult<Vec<String>> {
        let hosts: Vec<HostEnv> = plan
            .filters
            .iter()
            .map(|f| if f.needs_host { host() } else { HostEnv::new() })
            .collect();
        let mut units = Vec::with_capacity(plan.m);
        for (j, h) in hosts.iter().enumerate() {
            let mut s = FilterStepper::new(plan, h)?.with_vm(vm);
            s.start(j)?;
            units.push(s);
        }
        let ((lo, hi), n_packets) = units[0].loop_bounds()?;
        for pkt in split_domain(lo, hi, n_packets as usize) {
            let mut buf: Option<Vec<u8>> = None;
            for (j, s) in units.iter_mut().enumerate() {
                buf = s.step(j, pkt, buf.as_deref())?;
            }
        }
        for j in 1..plan.m {
            let partial = units[j - 1].reduction_state(j - 1);
            units[j].merge_reduction(j, &partial)?;
        }
        units[plan.m - 1].epilogue_at(plan.m - 1)
    }

    /// Every monotone 3-unit plan of `src`, with the source on unit 0.
    fn every_plan(src: &str) -> Vec<FilterPlan> {
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let mut plans = vec![vec![0usize]];
        for _ in 0..g.atoms.len() {
            plans = plans
                .into_iter()
                .flat_map(|p| {
                    (*p.last().expect("non-empty")..3).map(move |u| [p.clone(), vec![u]].concat())
                })
                .collect();
        }
        plans
            .into_iter()
            .map(|unit_of| {
                let d = Decomposition {
                    unit_of,
                    cost: f64::NAN,
                };
                build_plan(&np, &g, &ca, &d, 3).unwrap()
            })
            .collect()
    }

    /// Run every plan of `src` sequentially and unit by unit on both
    /// engines; return the runs whose result differs from the oracle's
    /// (its output, or its failure's message).
    fn plans_disagreeing_with_the_oracle(src: &str, host: &dyn Fn() -> HostEnv) -> Vec<String> {
        plans_disagreeing_with(src, host, &|_| src.to_string())
    }

    /// [`plans_disagreeing_with_the_oracle`], checking each plan against
    /// the oracle of the program `oracle(plan)` instead of `src`'s.
    fn plans_disagreeing_with(
        src: &str,
        host: &dyn Fn() -> HostEnv,
        oracle: &dyn Fn(&FilterPlan) -> String,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        for plan in every_plan(src) {
            let tp = frontend(&oracle(&plan)).unwrap();
            let mut it = SeqInterp::new(&tp, host());
            let expect = it
                .run_main()
                .map(|_| it.output.clone())
                .map_err(|d| d.message);
            let unit_of = &plan.decomposition.unit_of;
            let runs = [
                ("sequential", run_plan_sequential(&plan, &host())),
                ("unit by unit", run_unit_by_unit(&plan, host, false)),
                (
                    "unit by unit on the VM",
                    run_unit_by_unit(&plan, host, true),
                ),
            ];
            for (how, got) in runs {
                let same = match (&got, &expect) {
                    (Ok(out), Ok(want)) => out == want,
                    (Err(e), Err(msg)) => e.to_string().contains(msg.as_str()),
                    _ => false,
                };
                if !same {
                    bad.push(format!("{unit_of:?} {how}: {got:?}"));
                }
            }
        }
        bad
    }

    /// [`BASE`] with `extra` added to the prologue, after `acc`.
    fn with_prologue(extra: &str) -> String {
        BASE.replace(
            "Acc acc = new Acc();",
            &format!("Acc acc = new Acc();\n{extra}"),
        )
    }

    #[test]
    fn an_alias_keeps_the_mutation_made_through_it() {
        // `t` is not named by any atom, only reached through `s`: the
        // fixpoint must keep `t.f = 3.0;` wherever `s` is read, with the
        // alias before the mutation or after it (one pass in either
        // direction misses one of the two).
        for prologue in [
            "Scale s = new Scale(); Scale t = s; t.f = 3.0;",
            "Scale t = new Scale(); t.f = 3.0; Scale s = t;",
        ] {
            let src = with_prologue(prologue)
                .replace("data[i] * 2.0", "data[i] * s.f")
                .replace("class A {", "class Scale { double f; }\nclass A {");
            let host = || base_host(100, 5);
            assert_eq!(
                plans_disagreeing_with_the_oracle(&src, &host),
                [] as [String; 0],
                "{prologue}"
            );
        }
    }

    #[test]
    fn a_callee_writing_an_extern_array_stays_on_unit_zero() {
        // `acc.prime()` names no extern at the call site; its callee
        // writes `data`, which unit 0 reads, so unit 0 keeps it even
        // where another unit holds `acc`.
        let src = with_prologue("acc.prime();").replace(
            "void add(double x)",
            "void prime() { data[0] = 1000.0; }\n void add(double x)",
        );
        let host = || base_host(100, 5);
        let prime = 2;
        for plan in every_plan(&src) {
            assert!(
                plan.filters[0].prologue.contains(&prime),
                "{}",
                plan.describe()
            );
            for f in plan.filters.iter().filter(|f| f.prologue.contains(&prime)) {
                assert!(f.needs_host, "{} writes data: {}", f.name, plan.describe());
            }
        }
        assert_eq!(
            plans_disagreeing_with_the_oracle(&src, &host),
            [] as [String; 0]
        );
    }

    #[test]
    fn a_dead_failing_statement_still_fails_the_run() {
        let src = with_prologue("double[] t = new double[2]; t[5] = 1.0;");
        let host = || base_host(100, 5);
        for plan in every_plan(&src) {
            let on = |f: &FilterSpec| f.prologue.contains(&2) && f.prologue.contains(&3);
            let units: Vec<bool> = plan.filters.iter().map(on).collect();
            assert_eq!(units, [true, false, false], "{}", plan.describe());
        }
        assert_eq!(
            plans_disagreeing_with_the_oracle(&src, &host),
            [] as [String; 0]
        );
    }

    #[test]
    fn a_seeded_reduction_counts_once() {
        let src = with_prologue("acc.add(10.0);");
        let host = || base_host(100, 5);
        assert_eq!(
            plans_disagreeing_with_the_oracle(&src, &host),
            [] as [String; 0]
        );
    }

    #[test]
    fn a_root_held_by_two_units_counts_its_seed_once_per_holder() {
        // A second atom updates `acc`; plans that place the two on
        // different units have two holders, and each builds its own copy
        // from its slice. A prologue that builds the identity matches the
        // oracle on every plan; a seed counts once per holder (module
        // docs: *Reduction finalization*).
        let two_atoms = |src: String| {
            src.replace(
                "PipelinedLoop (pkt in all; num_packets) {",
                "PipelinedLoop (pkt in all; num_packets) {\n\
                 foreach (i in pkt) { acc.add(1.0); }",
            )
        };
        let host = || base_host(100, 5);
        assert_eq!(
            plans_disagreeing_with_the_oracle(&two_atoms(BASE.to_string()), &host),
            [] as [String; 0]
        );
        let holders =
            |plan: &FilterPlan| plan.filters.iter().filter(|f| f.holds == ["acc"]).count();
        let plans = every_plan(&two_atoms(BASE.to_string()));
        assert!(plans.iter().any(|p| holders(p) == 1));
        assert!(plans.iter().any(|p| holders(p) == 2));
        let seeded = two_atoms(with_prologue("acc.add(10.0);"));
        let seeds =
            |plan: &FilterPlan| two_atoms(with_prologue(&"acc.add(10.0);".repeat(holders(plan))));
        assert_eq!(
            plans_disagreeing_with(&seeded, &host, &seeds),
            [] as [String; 0]
        );
    }

    #[test]
    fn reading_an_unbound_extern_names_it_on_both_engines() {
        // One unit: its own foreach reads `data`.
        let plan = make_plan(BASE, 1, DecompStyle::Spread);
        let no_data = HostEnv::new()
            .bind("n", Value::Int(100))
            .bind("num_packets", Value::Int(5));
        for vm in [false, true] {
            let empty = HostEnv::new();
            let mut s = FilterStepper::new(&plan, &empty).unwrap().with_vm(vm);
            let err = s.loop_bounds().expect_err("`n` is unbound").to_string();
            assert!(err.contains("unknown variable `n`"), "vm={vm}: {err}");
            let mut s = FilterStepper::new(&plan, &no_data).unwrap().with_vm(vm);
            let err = s.step(0, (0, 19), None).expect_err("`data` is unbound");
            assert!(
                err.to_string().contains("unknown variable `data`"),
                "vm={vm}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unit f3 (2) never started")]
    fn reduction_state_of_an_unstarted_unit_is_a_caller_bug() {
        let host = base_host(100, 5);
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        FilterStepper::new(&plan, &host).unwrap().reduction_state(2);
    }

    #[test]
    fn vm_stepper_handles_filtering_cut_plans() {
        let host = base_host(100, 5);
        let np = normalize(&frontend(BASE).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        let (_, cond_b) = g.cond_boundaries[0];
        // Cut exactly at the filtering boundary so the VM executes the
        // Select probe upstream and the guarded Body downstream.
        let mut unit_of = vec![0usize; n_tasks];
        for (t, u) in unit_of.iter_mut().enumerate().skip(1) {
            *u = if t - 1 <= cond_b { 0 } else { 1 };
        }
        let plan = build_plan(&np, &g, &ca, &Decomposition { unit_of, cost: 0.0 }, 2).unwrap();
        assert!(
            plan.lowered
                .steps
                .iter()
                .flatten()
                .any(|s| matches!(s, LoweredStep::Select(_))),
            "this plan must exercise a filtering cut"
        );
        assert_eq!(
            run_plan_sequential_vm(&plan, &host).unwrap(),
            oracle(BASE, &host)
        );
    }

    #[test]
    fn multi_stage_program_with_objects() {
        let src = r#"
            extern int n;
            extern double[] xs;
            runtime_define int num_packets;
            class P { double a; double b; }
            class Stats implements Reducinterface {
                double sum;
                int cnt;
                void reduce(Stats o) { sum = sum + o.sum; cnt = cnt + o.cnt; }
                void push(double v) { sum = sum + v; cnt = cnt + 1; }
            }
            class A {
                double f(double x) { return x * x - 1.0; }
                void main() {
                    RectDomain<1> all = [0 : n - 1];
                    Stats st = new Stats();
                    PipelinedLoop (pkt in all; num_packets) {
                        foreach (i in pkt) {
                            P p = new P();
                            p.a = xs[i];
                            p.b = f(p.a);
                            if (p.b > 0.5) {
                                st.push(p.b - p.a);
                            }
                        }
                    }
                    print(st.sum);
                    print(st.cnt);
                }
            }
        "#;
        let n = 90;
        let xs = Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
            (0..n)
                .map(|i| Value::Double((i % 13) as f64 * 0.31))
                .collect(),
        )));
        let host = HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(6))
            .bind("xs", xs);
        for m in [2, 3, 4] {
            let plan = make_plan(src, m, DecompStyle::Spread);
            let out = run_plan_sequential(&plan, &host).unwrap();
            assert_eq!(out, oracle(src, &host), "m={m}\n{}", plan.describe());
        }
    }
}
