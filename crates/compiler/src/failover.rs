//! Cost-model-driven failover: replan the decomposition when a host dies.
//!
//! The paper's decomposition DP (Figure 3) is cheap — `O(nm)` — so when
//! the runtime reports a dead computing unit mid-run, the cheapest
//! correct response is to *re-run the compiler's placement decision*
//! over the surviving hosts rather than fall back to a fixed spare. The
//! dead unit's two adjacent links merge into one route (min bandwidth,
//! summed latency, see [`PipelineEnv::without_unit`]), and the same DP
//! that chose the original cut points chooses new ones for the shrunken
//! pipeline. The replanned run recomputes from packet 0, so it completes
//! with the same output as the fault-free run.

use crate::cost::PipelineEnv;
use crate::decompose::{decompose_dp, evaluate, Decomposition, Problem};
use crate::error::{CompileError, CompileResult};

/// The outcome of replanning around a dead computing unit.
#[derive(Debug, Clone)]
pub struct FailoverPlan {
    /// Index of the unit that died in the *original* environment.
    pub dead_unit: usize,
    /// The surviving environment (one fewer unit, merged links).
    pub env: PipelineEnv,
    /// The new decomposition over the surviving units.
    pub decomposition: Decomposition,
    /// Per-packet cost of the original decomposition on the original
    /// environment (the run being abandoned).
    pub cost_before: f64,
    /// Per-packet cost of the replanned decomposition — the DP optimum
    /// for the surviving pipeline.
    pub cost_after: f64,
}

impl FailoverPlan {
    /// Relative slowdown the failure costs per packet (1.0 = no change).
    pub fn slowdown(&self) -> f64 {
        if self.cost_before > 0.0 {
            self.cost_after / self.cost_before
        } else {
            1.0
        }
    }

    /// One-paragraph human-readable summary for `--explain` output.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "failover: unit {} died; replanned over {} surviving units\n",
            self.dead_unit,
            self.env.m()
        ));
        for j in 0..self.env.m() {
            let tasks = self.decomposition.tasks_on(j);
            s.push_str(&format!("  unit {j}: tasks {tasks:?}\n"));
        }
        s.push_str(&format!(
            "  per-packet cost {:.3e} -> {:.3e} ({:.2}x)\n",
            self.cost_before,
            self.cost_after,
            self.slowdown()
        ));
        s
    }
}

/// Re-run the decomposition DP over the environment with `dead_unit`
/// removed. `current` is the decomposition that was executing when the
/// unit died (used only to report the cost delta).
pub fn replan(
    problem: &Problem,
    env: &PipelineEnv,
    current: &Decomposition,
    dead_unit: usize,
) -> CompileResult<FailoverPlan> {
    let survivors = env.without_unit(dead_unit).ok_or_else(|| {
        CompileError::new(format!(
            "cannot fail over around unit {dead_unit}: endpoints own the data/view and \
             a pipeline of {} units has no removable interior",
            env.m()
        ))
    })?;
    let cost_before = evaluate(problem, env, &current.unit_of);
    let decomposition = decompose_dp(problem, &survivors);
    let cost_after = decomposition.cost;
    Ok(FailoverPlan {
        dead_unit,
        env: survivors,
        decomposition,
        cost_before,
        cost_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCount;

    fn problem() -> Problem {
        // Virtual source + four atoms with decreasing volumes (filtering
        // chain): the classic shape where cut placement matters.
        let mut tasks = vec![OpCount::zero()];
        for ops in [400.0, 300.0, 200.0, 100.0] {
            tasks.push(OpCount {
                flops: ops,
                ..OpCount::zero()
            });
        }
        Problem::synthetic(tasks, vec![4096.0, 2048.0, 1024.0, 512.0, 0.0])
    }

    #[test]
    fn without_unit_merges_the_adjacent_links() {
        let env = PipelineEnv {
            power: vec![1e7, 2e7, 3e7, 4e7],
            bandwidth: vec![1e6, 5e5, 2e6],
            latency: vec![1e-5, 2e-5, 3e-5],
        };
        let s = env.without_unit(1).unwrap();
        assert_eq!(s.power, vec![1e7, 3e7, 4e7]);
        // L0 (1e6) and L1 (5e5) merge: min bandwidth, summed latency.
        assert_eq!(s.bandwidth, vec![5e5, 2e6]);
        assert!((s.latency[0] - 3e-5).abs() < 1e-12);
        assert_eq!(s.latency[1], 3e-5);
    }

    #[test]
    fn endpoints_and_short_pipelines_are_irremovable() {
        let env = PipelineEnv::uniform(4, 1e7, 1e6, 1e-5);
        assert!(env.without_unit(0).is_none());
        assert!(env.without_unit(3).is_none());
        assert!(env.without_unit(4).is_none());
        assert!(PipelineEnv::uniform(2, 1e7, 1e6, 1e-5)
            .without_unit(1)
            .is_none());
    }

    #[test]
    fn replan_produces_a_valid_optimal_decomposition() {
        let env = PipelineEnv::uniform(4, 1e7, 1e6, 1e-5);
        let p = problem();
        let original = decompose_dp(&p, &env);
        let plan = replan(&p, &env, &original, 2).unwrap();
        assert_eq!(plan.env.m(), 3);
        assert_eq!(plan.decomposition.unit_of.len(), p.n_tasks());
        assert!(plan.decomposition.unit_of.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.decomposition.unit_of[0], 0);
        // The replanned cost is the DP optimum on the survivors and can
        // never beat adding a host back.
        assert!((plan.cost_after - plan.decomposition.cost).abs() < 1e-12);
        assert!(plan.cost_after + 1e-12 >= original.cost);
        let text = plan.render_text();
        assert!(text.contains("unit 2 died"), "{text}");
        assert!(text.contains("per-packet cost"), "{text}");
    }

    #[test]
    fn replan_rejects_endpoint_failures() {
        let env = PipelineEnv::uniform(3, 1e7, 1e6, 1e-5);
        let p = problem();
        let original = decompose_dp(&p, &env);
        let err = replan(&p, &env, &original, 0).unwrap_err();
        assert!(err.to_string().contains("fail over"), "{err}");
        assert!(replan(&p, &env, &original, 2).is_err());
    }
}
