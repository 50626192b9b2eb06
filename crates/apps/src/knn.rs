//! k-nearest-neighbor search's dataset (Section 6.4). The program is
//! [`crate::dialect::KNN_SRC`].
//!
//! The paper's dataset is 4.5 million 3-D points (108 MB → 24 bytes per
//! point), queried with k = 3 and k = 200; we generate a deterministic
//! pseudo-random point set of `f64` triples (same 24 bytes/point) at the
//! sizes the VM and the interpreter oracle run in. The dataset is
//! memory-resident at the data nodes, as a 108 MB working set would have
//! been after its first scan.

use cgp_obs::SmallRng;

/// Deterministic 3-D point cloud (24 bytes per point, like the paper's).
pub fn generate_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{
        inlined_calls, knn_host_env, loop_ranges, oracle, run_compiled, KNN_MANUAL_SRC, KNN_SRC,
    };
    use cgp_compiler::codegen::LoweredStep;
    use cgp_compiler::cost::{FilterEngine, PipelineEnv};
    use cgp_compiler::{compile, CompileOptions, Decomposition, Objective};
    use cgp_lang::bytecode::{Op, Repr};

    /// What [`KNN_SRC`] prints, computed in Rust: the sum of the k
    /// smallest squared distances from `q`, in ascending order.
    fn brute_force(pts: &[[f64; 3]], q: [f64; 3], k: usize) -> String {
        let mut d: Vec<f64> = pts
            .iter()
            .map(|p| {
                let (dx, dy, dz) = (p[0] - q[0], p[1] - q[1], p[2] - q[2]);
                dx * dx + dy * dy + dz * dz
            })
            .collect();
        d.sort_by(f64::total_cmp);
        d.iter().take(k).fold(0.0, |s, d| s + d).to_string()
    }

    fn opts(npoints: usize, k: i64) -> CompileOptions {
        CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e8, 1e-5), 64)
            .with_symbol("npoints", npoints as i64)
            .with_symbol("k", k)
    }

    #[test]
    fn points_are_deterministic() {
        assert_eq!(generate_points(100, 5), generate_points(100, 5));
        assert_ne!(generate_points(100, 5), generate_points(100, 6));
    }

    /// `KNearest` fed out of order, with k below, at and above the point
    /// count, keeps exactly the k smallest (every sum here is exact).
    #[test]
    fn knearest_keeps_k_smallest() {
        // Squared distances 9, 1, 4, 0.25 and 6.25 from the origin.
        let pts = [
            [3.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
            [0.5, 0.0, 0.0],
            [0.0, 2.5, 0.0],
        ];
        for (k, sum) in [(1, "0.25"), (3, "5.25"), (5, "20.5"), (7, "20.5")] {
            let host = knn_host_env(&pts, [0.0; 3], k, 2);
            assert_eq!(oracle(KNN_SRC, &host), [sum], "k = {k}");
        }
    }

    #[test]
    fn knearest_matches_sort_oracle() {
        let pts = generate_points(500, 13);
        let q = [0.5, 0.5, 0.5];
        for k in [1, 3, 17, 200, 600] {
            let host = knn_host_env(&pts, q, k as i64, 7);
            let want = brute_force(&pts, q, k);
            assert_eq!(oracle(KNN_SRC, &host), [want], "k = {k}");
        }
    }

    /// The compiled pipeline, cut where the steady-state objective puts
    /// the cut, prints the brute-force answer.
    #[test]
    fn matches_brute_force_oracle() {
        let pts = generate_points(1000, 11);
        let q = [0.4, 0.4, 0.6];
        let host = knn_host_env(&pts, q, 5, 7);
        let steady = opts(1000, 5).with_objective(Objective::SteadyState { n_packets: 7 });
        let (unit_of, out) = run_compiled(KNN_SRC, &steady, &host);
        assert!(unit_of.iter().any(|&u| u > 0), "no cut: {unit_of:?}");
        assert_eq!(out, [brute_force(&pts, q, 5)]);
    }

    /// Default, the latency and steady-state picks, and the hand-written
    /// variant with every atom on the data host (its only plan that
    /// compiles) print what the interpreter prints, for the paper's two k.
    #[test]
    fn all_versions_agree() {
        let pts = generate_points(500, 8);
        for k in [3, 200] {
            let host = knn_host_env(&pts, [0.5; 3], k, 6);
            let expect = oracle(KNN_SRC, &host);
            assert_eq!(oracle(KNN_MANUAL_SRC, &host), expect, "k = {k}");
            let latency = opts(500, k);
            let place = |src, unit_of: fn(usize) -> Vec<usize>| {
                let n_tasks = compile(src, &latency).unwrap().problem.n_tasks();
                latency.clone().with_decomposition(Decomposition {
                    unit_of: unit_of(n_tasks),
                    cost: f64::NAN,
                })
            };
            let default = place(KNN_SRC, |n| Decomposition::default_style(n, 3).unit_of);
            let steady = latency
                .clone()
                .with_objective(Objective::SteadyState { n_packets: 6 });
            let on_c0 = place(KNN_MANUAL_SRC, |n| vec![0; n]);
            for (src, opts) in [
                (KNN_SRC, &default),
                (KNN_SRC, &latency),
                (KNN_SRC, &steady),
                (KNN_MANUAL_SRC, &on_c0),
            ] {
                let (unit_of, out) = run_compiled(src, opts, &host);
                assert_eq!(out, expect, "k = {k}, unit_of {unit_of:?}");
            }
        }
    }

    /// The VM ops that move or compute on boxed `Value`s: generic
    /// arithmetic, comparisons and branches, boxed array elements, and
    /// copies of boxed slots. Calls, object ops and the once-per-frame
    /// memoizing read of a global are not counted.
    fn boxed_op(op: &Op) -> bool {
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
                | Op::LoadElem { repr: Repr::V, .. }
                | Op::StoreElem { repr: Repr::V, .. }
        ) || matches!(op, Op::ReadSlot { dst, slot } if dst != slot)
    }

    /// `knn-decomp`'s compute stages and the top-k `push` they feed run
    /// on unboxed registers, and `push` is inlined into the loop that
    /// calls it and into `reduce`: lowering that silently fell back to
    /// boxed ops would cost about 4× with no other symptom, and a real
    /// call about 2×.
    #[test]
    fn knn_decomp_hot_loops_lower_to_typed_ops() {
        let (points, packets) = (300_000i64, 64);
        let opts = CompileOptions::new(
            PipelineEnv::same_host(3, FilterEngine::Vm.power()),
            points / packets,
        )
        .with_symbol("npoints", points)
        .with_symbol("k", 8)
        .with_objective(Objective::SteadyState {
            n_packets: packets as u64,
        });
        let plan = compile(KNN_SRC, &opts).unwrap().plan;
        assert_eq!(plan.decomposition.unit_of, [0, 0, 0, 1]);
        let lowered = &plan.lowered;
        let mut stages = 0;
        for (j, steps) in lowered.steps.iter().enumerate() {
            for step in steps {
                let LoweredStep::Slice(slice) = step else {
                    continue;
                };
                for range in loop_ranges(&slice.code.ops) {
                    let body = &slice.code.ops[range];
                    stages += 1;
                    let boxed: Vec<&Op> = body.iter().filter(|o| boxed_op(o)).collect();
                    assert!(
                        boxed.is_empty(),
                        "f{} loop body boxes: {boxed:?}\n{body:?}",
                        j + 1
                    );
                }
            }
        }
        assert_eq!(stages, 2, "one loop on each compute stage");
        assert!(
            inlined_calls(&plan, "KNearest", "push") > 0,
            "push is a call"
        );
        let push = lowered.prog.method_id("KNearest", "push").unwrap();
        let reduce = lowered.prog.method_id("KNearest", "reduce").unwrap();
        assert!(
            lowered.prog.methods[reduce as usize]
                .code
                .ops
                .iter()
                .any(|o| matches!(o, Op::Guard { mi, .. } if *mi == push)),
            "reduce calls push through a guard"
        );
        let code = &lowered.prog.methods[push as usize].code;
        let boxed: Vec<&Op> = code.ops.iter().filter(|o| boxed_op(o)).collect();
        assert!(
            boxed.is_empty(),
            "KNearest.push boxes: {boxed:?}\n{:?}",
            code.ops
        );
    }
}
