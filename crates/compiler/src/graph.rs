//! The candidate filter boundary graph (Section 4.1).
//!
//! After normalization the pipelined-loop body is a sequence of atomic
//! units; the candidate boundary graph's nodes are the candidate boundaries
//! (plus virtual start/end) and its edges connect adjacent boundaries. Loop
//! fission guarantees the graph is acyclic; with top-level conditionals kept
//! whole (an entire `if` is one straight unit) the graph here is a *chain*,
//! which is exactly what the decomposition DP consumes. The general
//! graph-with-flow-paths API is preserved so diamond shapes could be added
//! later without changing consumers.
//!
//! A [`UnitKind::CondForeach`] unit contributes **two** atoms — the
//! condition-evaluating half ([`AtomCode::CondSelect`]) and the guarded body
//! ([`AtomCode::CondBody`]) — with the paper's "conditional inside a
//! foreach" boundary between them. Cutting there produces an upstream
//! filter that forwards only passing elements (how the isosurface Decomp
//! version pushes the cube test to the data nodes).

use crate::error::{CompileError, CompileResult};
use crate::normalize::{NormalizedPipeline, UnitKind};
use cgp_lang::ast::{Block, Expr, Stmt, StmtKind};

/// What kind of program point a candidate boundary is (labels only — used
/// in reports and tests; the decomposition treats all cuts uniformly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// Start of a `foreach` loop.
    ForeachStart,
    /// End of a `foreach` loop.
    ForeachEnd,
    /// A conditional statement outside a foreach.
    Conditional,
    /// Between the condition evaluation and the guarded body of a
    /// conditional inside a foreach (the *filtering* cut).
    CondFilter,
    /// Start/end of a statement-level call inside a foreach (the fission
    /// pass isolates the call, so the cut sits at the call unit's edges).
    CallEdge,
}

/// A candidate filter boundary between `atoms[index]` and `atoms[index+1]`.
#[derive(Debug, Clone)]
pub struct Boundary {
    pub index: usize,
    pub kind: BoundaryKind,
    pub label: String,
}

/// Executable content of one atomic filter.
#[derive(Debug, Clone)]
pub enum AtomCode {
    /// Straight-line statements (allocations, merges, whole conditionals,
    /// non-foreach loops).
    Straight(Vec<Stmt>),
    /// A complete `foreach` statement.
    Foreach(Stmt),
    /// The selecting half of a conditional-in-foreach: evaluates `cond` for
    /// each point of `domain`; only passing points continue.
    CondSelect {
        var: String,
        domain: Expr,
        cond: Expr,
        cond_id: usize,
    },
    /// The guarded body, executed for passing points only.
    CondBody {
        var: String,
        domain: Expr,
        body: Block,
        cond_id: usize,
    },
}

/// One atomic filter `f_i` (the code between consecutive candidate
/// boundaries).
#[derive(Debug, Clone)]
pub struct Atom {
    /// Position in the chain (0-based; the paper's `f_{idx+1}`).
    pub idx: usize,
    pub code: AtomCode,
    pub label: String,
    /// Index of the originating normalized unit.
    pub unit_idx: usize,
}

/// The candidate filter boundary graph, linearized: `atoms.len() == n + 1`
/// atomic filters separated by `n` candidate boundaries.
#[derive(Debug, Clone)]
pub struct BoundaryGraph {
    pub atoms: Vec<Atom>,
    pub boundaries: Vec<Boundary>,
    /// Conditional (filtering) boundaries, by `cond_id` → boundary index.
    pub cond_boundaries: Vec<(usize, usize)>,
}

impl BoundaryGraph {
    /// Number of candidate boundaries `n`.
    pub fn n_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// The single flow path (start → end) of this chain-shaped graph.
    pub fn flow_path(&self) -> Vec<usize> {
        (0..self.atoms.len()).collect()
    }

    /// The graph is acyclic by construction; kept as an explicit check for
    /// tests and future non-chain shapes.
    pub fn is_acyclic(&self) -> bool {
        true
    }
}

/// Build the boundary graph from a normalized pipeline.
pub fn build_graph(np: &NormalizedPipeline) -> CompileResult<BoundaryGraph> {
    let mut atoms: Vec<Atom> = Vec::new();
    let mut boundaries: Vec<Boundary> = Vec::new();
    let mut cond_boundaries: Vec<(usize, usize)> = Vec::new();
    let mut next_cond_id = 0usize;

    let push_atom = |atoms: &mut Vec<Atom>,
                     boundaries: &mut Vec<Boundary>,
                     code: AtomCode,
                     label: String,
                     unit_idx: usize,
                     kind_before: BoundaryKind| {
        if !atoms.is_empty() {
            boundaries.push(Boundary {
                index: boundaries.len(),
                kind: kind_before,
                label: format!("b{}", boundaries.len() + 1),
            });
        }
        atoms.push(Atom {
            idx: atoms.len(),
            code,
            label,
            unit_idx,
        });
    };

    for (ui, unit) in np.units.iter().enumerate() {
        match unit.kind {
            UnitKind::Straight => {
                // Boundary before a straight unit: if the unit is an
                // isolated conditional, label it so.
                let kind =
                    if unit.stmts.len() == 1 && matches!(unit.stmts[0].kind, StmtKind::If { .. }) {
                        BoundaryKind::Conditional
                    } else {
                        BoundaryKind::ForeachEnd
                    };
                push_atom(
                    &mut atoms,
                    &mut boundaries,
                    AtomCode::Straight(unit.stmts.clone()),
                    unit.label.clone(),
                    ui,
                    kind,
                );
            }
            UnitKind::Foreach => {
                let kind = if unit.label.starts_with("call") {
                    BoundaryKind::CallEdge
                } else {
                    BoundaryKind::ForeachStart
                };
                push_atom(
                    &mut atoms,
                    &mut boundaries,
                    AtomCode::Foreach(unit.stmts[0].clone()),
                    unit.label.clone(),
                    ui,
                    kind,
                );
            }
            UnitKind::CondForeach => {
                let (var, domain, cond, then) = unit
                    .cond_parts()
                    .ok_or_else(|| CompileError::new("malformed CondForeach unit"))?;
                let cond_id = next_cond_id;
                next_cond_id += 1;
                let kind = BoundaryKind::ForeachStart;
                push_atom(
                    &mut atoms,
                    &mut boundaries,
                    AtomCode::CondSelect {
                        var: var.to_string(),
                        domain: domain.clone(),
                        cond: cond.clone(),
                        cond_id,
                    },
                    format!("{}-select", unit.label),
                    ui,
                    kind,
                );
                // Internal filtering boundary.
                push_atom(
                    &mut atoms,
                    &mut boundaries,
                    AtomCode::CondBody {
                        var: var.to_string(),
                        domain: domain.clone(),
                        body: then.clone(),
                        cond_id,
                    },
                    format!("{}-body", unit.label),
                    ui,
                    BoundaryKind::CondFilter,
                );
                cond_boundaries.push((cond_id, boundaries.len() - 1));
            }
        }
    }

    if atoms.is_empty() {
        return Err(CompileError::new("no atomic filters in pipeline body"));
    }
    Ok(BoundaryGraph {
        atoms,
        boundaries,
        cond_boundaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use cgp_lang::frontend;

    fn graph(src: &str) -> BoundaryGraph {
        build_graph(&normalize(&frontend(src).unwrap()).unwrap()).unwrap()
    }

    const SRC: &str = r#"
        extern int n;
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
                        double t = toDouble(i) * 0.5;
                        double u = t * t;
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
    fn chain_shape_and_counts() {
        let g = graph(SRC);
        // alloc straight, compute foreach, cond-select, cond-body
        assert_eq!(
            g.atoms.len(),
            4,
            "{:?}",
            g.atoms.iter().map(|a| &a.label).collect::<Vec<_>>()
        );
        assert_eq!(g.n_boundaries(), 3);
        assert!(g.is_acyclic());
        assert_eq!(g.flow_path(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cond_filter_boundary_registered() {
        let g = graph(SRC);
        assert_eq!(g.cond_boundaries.len(), 1);
        let (_, bidx) = g.cond_boundaries[0];
        assert_eq!(g.boundaries[bidx].kind, BoundaryKind::CondFilter);
        assert!(matches!(g.atoms[bidx].code, AtomCode::CondSelect { .. }));
        assert!(matches!(g.atoms[bidx + 1].code, AtomCode::CondBody { .. }));
    }

    #[test]
    fn atom_indices_are_positional() {
        let g = graph(SRC);
        for (i, a) in g.atoms.iter().enumerate() {
            assert_eq!(a.idx, i);
        }
        for (i, b) in g.boundaries.iter().enumerate() {
            assert_eq!(b.index, i);
        }
    }

    #[test]
    fn single_foreach_yields_single_atom() {
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
                    foreach (i in pkt) { acc.add(toDouble(i)); }
                }
                print(acc.total);
            } }
        "#;
        let g = graph(src);
        assert_eq!(g.atoms.len(), 1);
        assert_eq!(g.n_boundaries(), 0);
    }
}
