//! Required-communication analysis (Section 4.2).
//!
//! With the candidate boundary chain `atom_0 … atom_n` and per-atom
//! Gen/Cons sets, the communication required at each candidate boundary is
//! computed in one backward pass:
//!
//! ```text
//! ReqComm(b_n)   = ∅                      (after the last atom)
//! ReqComm(b_i)   = ReqComm(b_{i+1}) − Gen(atom_{i+1}) + Cons(atom_{i+1})
//! ```
//!
//! The computed `ReqComm(b_i)` stays correct even when no filter boundary is
//! actually inserted at `b_{i+1}` (the paper's key observation): any value
//! the merged downstream code needs is either generated between `b_i` and
//! `b_{i+1}` (no longer communicated) or already captured in `ReqComm(b_i)`.
//!
//! The raw sets are then filtered to *communication-relevant* places:
//!
//! - the packet variable itself travels in every buffer header;
//! - prologue-declared values are replicated at filter `init()` (DataCutter
//!   work descriptions), never per packet;
//! - reduction variables are merged by the runtime's reduction channel at
//!   `finalize()`, never per packet (and the paper's model initializes the
//!   final ReqComm to ∅ accordingly);
//! - scalar externs are run configuration;
//! - what remains — extern data arrays and loop-body locals (including
//!   scalar-expanded arrays) — is the per-packet traffic.

use crate::error::CompileResult;
use crate::gencons::{analyze_atom_with, prologue_roots, reduction_roots, SegmentSets};
use crate::graph::BoundaryGraph;
use crate::normalize::NormalizedPipeline;
use crate::place::PlaceSet;
use cgp_lang::ast::Type;
use std::collections::HashMap;
use std::collections::HashSet;

/// Per-chain analysis results.
#[derive(Debug, Clone)]
pub struct ChainAnalysis {
    /// Gen/Cons of each atom, in chain order.
    pub atom_sets: Vec<SegmentSets>,
    /// Raw `ReqComm(b_i)` for each of the `n` candidate boundaries
    /// (`reqcomm[i]` crosses between `atoms[i]` and `atoms[i+1]`).
    pub reqcomm_raw: Vec<PlaceSet>,
    /// Communication-relevant subset of each `ReqComm(b_i)`.
    pub reqcomm: Vec<PlaceSet>,
    /// ReqComm at the virtual chain start (what the whole loop body consumes
    /// per packet — the raw input a Default placement ships downstream).
    pub input_set: PlaceSet,
    /// Roots excluded as reduction variables.
    pub reduction_roots: HashSet<String>,
    /// Roots excluded as prologue (init-replicated) values.
    pub prologue_roots: HashSet<String>,
}

/// Run Gen/Cons per atom and propagate ReqComm backward over the chain.
pub fn analyze_chain(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
) -> CompileResult<ChainAnalysis> {
    analyze_chain_with(np, graph, &HashMap::new())
}

/// [`analyze_chain`] with known extern-scalar values folded into symbolic
/// index expressions (see [`crate::gencons::analyze_atom_with`]).
pub(crate) fn analyze_chain_with(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    consts: &HashMap<String, i64>,
) -> CompileResult<ChainAnalysis> {
    let atom_sets = atom_sets_with(np, graph, consts)?;
    propagate_reqcomm(np, graph, atom_sets)
}

/// Phase 1 — the Gen/Cons pass: analyze each atom in chain order. Split
/// out so the driver can time it separately from the propagation.
pub fn atom_sets_with(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    consts: &HashMap<String, i64>,
) -> CompileResult<Vec<SegmentSets>> {
    graph
        .atoms
        .iter()
        .map(|a| analyze_atom_with(np, &a.code, consts))
        .collect()
}

/// Phase 2 — the backward ReqComm propagation over precomputed Gen/Cons
/// sets (from [`atom_sets_with`]).
pub fn propagate_reqcomm(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    atom_sets: Vec<SegmentSets>,
) -> CompileResult<ChainAnalysis> {
    let n = graph.n_boundaries();
    let mut reqcomm_raw = vec![PlaceSet::new(); n];
    // Backward pass: start from ∅ after the last atom.
    let mut cur = PlaceSet::new();
    for i in (0..n).rev() {
        // Code between b_i and b_{i+1} is atom i+1.
        let after = &atom_sets[i + 1];
        cur.kill_all(&after.gen);
        cur.extend(&after.cons);
        reqcomm_raw[i] = cur.clone();
    }
    // One more step across atom 0 gives the chain-start requirement.
    cur.kill_all(&atom_sets[0].gen);
    cur.extend(&atom_sets[0].cons);

    let red = reduction_roots(np);
    let pro = prologue_roots(np);
    let reqcomm = reqcomm_raw
        .iter()
        .map(|set| filter_relevant(np, set, &red, &pro))
        .collect();
    let input_set = filter_relevant(np, &cur, &red, &pro);

    Ok(ChainAnalysis {
        atom_sets,
        reqcomm_raw,
        reqcomm,
        input_set,
        reduction_roots: red,
        prologue_roots: pro,
    })
}

/// Keep only places that actually travel in per-packet buffers.
fn filter_relevant(
    np: &NormalizedPipeline,
    set: &PlaceSet,
    red: &HashSet<String>,
    pro: &HashSet<String>,
) -> PlaceSet {
    set.iter()
        .filter(|p| {
            let root = p.root.as_str();
            if root == np.pkt_var || root == "this" || root == "?unknown" {
                return false;
            }
            if red.contains(root) || pro.contains(root) {
                return false;
            }
            if let Some(ty) = np.typed.symbols.externs.get(root) {
                // extern arrays are the data; extern scalars are config
                return matches!(ty, Type::Array(_));
            }
            true
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::normalize::normalize;
    use cgp_lang::frontend;

    fn chain(src: &str) -> (NormalizedPipeline, BoundaryGraph, ChainAnalysis) {
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        (np, g, ca)
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
    fn reqcomm_shrinks_after_data_is_consumed() {
        let (_np, g, ca) = chain(BASE);
        assert_eq!(ca.reqcomm.len(), g.n_boundaries());
        // Boundary 0 (before the compute atom): raw input `data` crosses.
        let b0 = ca.reqcomm[0].to_string();
        assert!(b0.contains("data[pkt.lo : pkt.hi]"), "b0 = {b0}");
        // Boundary before the cond body: only the derived `v__x` crosses —
        // `data` must no longer appear.
        let last = ca.reqcomm.last().unwrap().to_string();
        assert!(last.contains("v__x"), "last = {last}");
        assert!(!last.contains("data"), "last = {last}");
    }

    #[test]
    fn reduction_and_config_roots_are_filtered() {
        let (_np, _g, ca) = chain(BASE);
        for (i, rc) in ca.reqcomm.iter().enumerate() {
            let s = rc.to_string();
            assert!(!s.contains("acc"), "b{i} = {s}");
            assert!(!s.contains("all"), "b{i} = {s}");
            assert!(!s.contains("pkt,"), "b{i} = {s}");
        }
        // … but the raw sets retain them for inspection.
        assert!(ca
            .reqcomm_raw
            .iter()
            .any(|rc| rc.to_string().contains("acc")));
    }

    #[test]
    fn reqcomm_valid_when_middle_boundary_uncut() {
        // The paper's argument: ReqComm(b_0) stays correct even if b_1 is
        // not selected. Check set inclusion: everything needed at b_0 to run
        // atoms 1..n is present whether or not a cut exists at b_1.
        let (_np, g, ca) = chain(BASE);
        assert!(g.n_boundaries() >= 2);
        // Compute ReqComm(b_0) directly by merging atoms 1..n as one segment.
        let mut merged = PlaceSet::new();
        for i in (1..g.atoms.len()).rev() {
            merged.kill_all(&ca.atom_sets[i].gen);
            merged.extend(&ca.atom_sets[i].cons);
        }
        // The one-pass result equals the merged-segment result.
        assert_eq!(ca.reqcomm_raw[0], merged);
    }

    #[test]
    fn chain_end_is_empty() {
        let (_np, g, ca) = chain(BASE);
        // The last boundary's ReqComm contains no extern data (already
        // consumed upstream) — for this program only derived locals remain.
        let last = &ca.reqcomm[g.n_boundaries() - 1];
        assert!(!last.to_string().contains("data"));
    }

    #[test]
    fn two_stage_program_communicates_intermediate_only() {
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
                        double a = xs[i] + 1.0;
                        double b = a * a;
                        double c = b - a;
                        acc.add(c);
                    }
                }
                print(acc.t);
            } }
        "#;
        // Single foreach, call statement fissions into its own unit:
        // boundaries: [alloc?]… compute | call
        let (_np, g, ca) = chain(src);
        let last = ca.reqcomm[g.n_boundaries() - 1].to_string();
        // Only `c` (expanded) crosses to the accumulate unit.
        assert!(last.contains("c__x"), "last = {last}");
        assert!(!last.contains("a__x"), "last = {last}");
        assert!(!last.contains("b__x"), "last = {last}");
        assert!(!last.contains("xs"), "last = {last}");
    }
}
