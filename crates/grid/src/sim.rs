//! Virtual-time pipeline simulator.
//!
//! **Why a simulator** — the paper's figures measure wall-clock execution
//! time on a real cluster (configurations 1-1-1, 2-2-1, 4-4-1). This
//! reproduction runs on a single-CPU machine where genuine parallel
//! speedups cannot appear in wall time, so the benchmark harness executes
//! the *real* per-packet stage code to obtain work and transfer volumes and
//! then replays the pipeline schedule in virtual time here. The simulator
//! preserves exactly what the figures measure: per-stage compute, per-link
//! transfer, pipeline overlap, queueing at the bottleneck, and the w-w-1
//! transparent-copy configurations.
//!
//! The model: each host serves its packet queue FIFO; each sending host's
//! egress link serializes its transfers (latency + bytes/bandwidth). A
//! packet `p` visits stage copy `p mod w_s` at every stage (the runtime's
//! round-robin). After the last packet, each stage's finalization state
//! (reduction objects) chains through the remaining links to the view node.
//!
//! With uniform packets and width-1 stages the makespan is provably the
//! paper's closed-form `(N−1)·T(bottleneck) + Σ T(C_i) + Σ T(L_i)` — a
//! property the tests assert.

use crate::config::GridConfig;
use cgp_obs::trace::{self, ArgValue, PID_SIM};

/// Virtual seconds → trace microseconds: the simulator's timeline uses the
/// same Chrome `trace_event` format as the real runtime, with virtual time
/// scaled by 1e6 so one virtual second reads as one second in the viewer.
const VIRT_US: f64 = 1e6;

/// Work one packet induces: standard ops per stage, bytes per link, and
/// bytes read from the data stage's local storage.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketWork {
    /// Standard operations executed at each stage (len = m).
    pub comp_ops: Vec<f64>,
    /// Bytes sent over each link (len = m−1).
    pub bytes: Vec<f64>,
    /// Bytes the data stage reads from local storage for this packet
    /// (charged against the stage-0 host's `disk_bandwidth`, if any).
    pub read_bytes: f64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total virtual time from first packet availability to final results
    /// (including finalization transfers).
    pub makespan: f64,
    /// Makespan without the finalization tail.
    pub packets_done: f64,
    /// Busy time per (stage, copy).
    pub stage_busy: Vec<Vec<f64>>,
    /// Busy time per (stage, copy) egress link.
    pub link_busy: Vec<Vec<f64>>,
    /// Utilization (busy / makespan) of the most loaded resource.
    pub bottleneck_utilization: f64,
}

impl SimResult {
    /// The most utilized resource: `("C"|"L", stage, copy)`.
    pub fn bottleneck(&self) -> (&'static str, usize, usize) {
        let mut best = ("C", 0, 0);
        let mut val = f64::MIN;
        for (s, copies) in self.stage_busy.iter().enumerate() {
            for (c, t) in copies.iter().enumerate() {
                if *t > val {
                    val = *t;
                    best = ("C", s, c);
                }
            }
        }
        for (s, copies) in self.link_busy.iter().enumerate() {
            for (c, t) in copies.iter().enumerate() {
                if *t > val {
                    val = *t;
                    best = ("L", s, c);
                }
            }
        }
        best
    }
}

/// Simulate `packets` flowing through `grid`. `finalize_bytes[s]` is the
/// one-time end-of-work transfer out of stage `s` (reduction state /
/// assembled results); it chains stage-by-stage to the last host after that
/// stage's final packet.
pub fn simulate(grid: &GridConfig, packets: &[PacketWork], finalize_bytes: &[f64]) -> SimResult {
    let m = grid.m();
    assert!(m >= 1);
    assert!(finalize_bytes.len() >= m.saturating_sub(1) || finalize_bytes.is_empty());
    for p in packets {
        assert_eq!(p.comp_ops.len(), m, "comp_ops per stage");
        assert_eq!(p.bytes.len(), m - 1, "bytes per link");
    }
    let widths = grid.widths();

    // free[s][c] = next idle time of stage s copy c; lfree likewise for the
    // egress link of stage s copy c.
    let mut free: Vec<Vec<f64>> = widths.iter().map(|w| vec![0.0; *w]).collect();
    let mut lfree: Vec<Vec<f64>> = widths[..m - 1].iter().map(|w| vec![0.0; *w]).collect();
    let mut stage_busy: Vec<Vec<f64>> = widths.iter().map(|w| vec![0.0; *w]).collect();
    let mut link_busy: Vec<Vec<f64>> = lfree.iter().map(|v| vec![0.0; v.len()]).collect();

    // Timeline export: each (stage, copy) and each egress link gets its own
    // virtual thread; busy intervals become 'X' events on the virtual clock.
    // One relaxed atomic load when tracing is off.
    let tracing = trace::enabled();
    let mut stage_tid: Vec<Vec<u32>> = Vec::new();
    let mut link_tid: Vec<Vec<u32>> = Vec::new();
    if tracing {
        trace::name_process(PID_SIM, "grid-sim (virtual time)");
        let mut next = 0u32;
        for (s, w) in widths.iter().enumerate() {
            let tids: Vec<u32> = (0..*w)
                .map(|c| {
                    trace::name_thread(PID_SIM, next, format!("C{s}[{c}]"));
                    next += 1;
                    next - 1
                })
                .collect();
            stage_tid.push(tids);
        }
        for (s, v) in lfree.iter().enumerate() {
            let tids: Vec<u32> = (0..v.len())
                .map(|c| {
                    trace::name_thread(PID_SIM, next, format!("L{s}[{c}]"));
                    next += 1;
                    next - 1
                })
                .collect();
            link_tid.push(tids);
        }
    }

    let mut packets_done: f64 = 0.0;
    for (p, work) in packets.iter().enumerate() {
        let mut arrive = 0.0_f64;
        for s in 0..m {
            // The runtime's round-robin target.
            let c = p % widths[s];
            let host = &grid.stages[s].hosts[c];
            let mut service = work.comp_ops[s] / host.power;
            if s == 0 {
                if let Some(disk) = host.disk_bandwidth {
                    service += work.read_bytes / disk;
                }
            }
            let start = arrive.max(free[s][c]);
            let done = start + service;
            free[s][c] = done;
            stage_busy[s][c] += service;
            if tracing {
                trace::complete(
                    format!("pkt{p}"),
                    "sim-stage",
                    start * VIRT_US,
                    service * VIRT_US,
                    PID_SIM,
                    stage_tid[s][c],
                    vec![
                        ("ops", ArgValue::from(work.comp_ops[s])),
                        ("wait_virt_s", ArgValue::from(start - arrive)),
                    ],
                );
            }
            arrive = done;
            if s < m - 1 {
                let link = grid.links[s];
                let xfer = link.latency + work.bytes[s] / link.bandwidth;
                let lstart = arrive.max(lfree[s][c]);
                let ldone = lstart + xfer;
                lfree[s][c] = ldone;
                link_busy[s][c] += xfer;
                if tracing {
                    trace::complete(
                        format!("pkt{p}"),
                        "sim-link",
                        lstart * VIRT_US,
                        xfer * VIRT_US,
                        PID_SIM,
                        link_tid[s][c],
                        vec![("bytes", ArgValue::from(work.bytes[s]))],
                    );
                }
                arrive = ldone;
            }
        }
        packets_done = packets_done.max(arrive);
    }

    // Finalization: each stage copy's end-of-work state flows to the next
    // stage (copy 0) and onward; the view host can only finish after every
    // chain arrives.
    let mut makespan = packets_done;
    if m >= 2 && !finalize_bytes.is_empty() {
        for s in 0..m - 1 {
            for c in 0..widths[s] {
                let mut t = free[s][c];
                for l in s..m - 1 {
                    let link = grid.links[l];
                    let fb = finalize_bytes.get(l).copied().unwrap_or(0.0);
                    let xfer = link.latency + fb / link.bandwidth;
                    if tracing {
                        trace::complete(
                            format!("finalize C{s}[{c}]"),
                            "sim-finalize",
                            t * VIRT_US,
                            xfer * VIRT_US,
                            PID_SIM,
                            link_tid[l][c % link_tid[l].len()],
                            vec![("bytes", ArgValue::from(fb))],
                        );
                    }
                    t += xfer;
                }
                makespan = makespan.max(t);
            }
        }
    }

    let mut util = 0.0_f64;
    if makespan > 0.0 {
        for copies in stage_busy.iter().chain(link_busy.iter()) {
            for b in copies {
                util = util.max(b / makespan);
            }
        }
    }

    SimResult {
        makespan,
        packets_done,
        stage_busy,
        link_busy,
        bottleneck_utilization: util,
    }
}

/// The paper's closed-form total time for uniform packets on a width-1
/// chain: `(N−1)·T(bottleneck) + Σ T(C_i) + Σ T(L_i)` (Section 4.3),
/// generalized to width-w stages by dividing each stage/link per-packet
/// time by its width (w copies drain w packets per cycle).
pub fn analytic_total_time(grid: &GridConfig, per_packet: &PacketWork, n_packets: u64) -> f64 {
    let m = grid.m();
    let widths = grid.widths();
    let mut fill = 0.0;
    let mut bottleneck = 0.0_f64;
    for (s, stage) in grid.stages.iter().enumerate() {
        let host = &stage.hosts[0];
        let mut t = per_packet.comp_ops[s] / host.power;
        if s == 0 {
            if let Some(disk) = host.disk_bandwidth {
                t += per_packet.read_bytes / disk;
            }
        }
        fill += t;
        bottleneck = bottleneck.max(t / widths[s] as f64);
    }
    for (l, link) in grid.links.iter().enumerate().take(m - 1) {
        let t = link.latency + per_packet.bytes[l] / link.bandwidth;
        fill += t;
        bottleneck = bottleneck.max(t / widths[l] as f64);
    }
    (n_packets.saturating_sub(1)) as f64 * bottleneck + fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GridConfig, LinkSpec};

    fn uniform_packets(n: usize, ops: &[f64], bytes: &[f64]) -> Vec<PacketWork> {
        (0..n)
            .map(|_| PacketWork {
                comp_ops: ops.to_vec(),
                bytes: bytes.to_vec(),
                read_bytes: 0.0,
            })
            .collect()
    }

    #[test]
    fn single_stage_sums_service_times() {
        let g = GridConfig::uniform_chain(
            1,
            10.0,
            LinkSpec {
                bandwidth: 1.0,
                latency: 0.0,
            },
        );
        let r = simulate(&g, &uniform_packets(5, &[20.0], &[]), &[]);
        assert!((r.makespan - 5.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn chain_matches_paper_formula_exactly() {
        // Uniform packets, width-1 chain → DES must equal the closed form.
        let link = LinkSpec {
            bandwidth: 100.0,
            latency: 0.01,
        };
        let g = GridConfig::uniform_chain(3, 10.0, link);
        let work = PacketWork {
            comp_ops: vec![5.0, 30.0, 10.0],
            bytes: vec![200.0, 50.0],
            read_bytes: 0.0,
        };
        for n in [1usize, 2, 10, 100] {
            let r = simulate(&g, &uniform_packets(n, &work.comp_ops, &work.bytes), &[]);
            let analytic = analytic_total_time(&g, &work, n as u64);
            assert!(
                (r.makespan - analytic).abs() < 1e-9 * analytic,
                "n={n}: sim {} vs analytic {analytic}",
                r.makespan
            );
        }
    }

    #[test]
    fn bottleneck_detection() {
        let link = LinkSpec {
            bandwidth: 10.0,
            latency: 0.0,
        };
        let g = GridConfig::uniform_chain(2, 100.0, link);
        // link carries 100 bytes → 10 s per packet, compute 1 s → link-bound
        let r = simulate(&g, &uniform_packets(10, &[100.0, 100.0], &[100.0]), &[]);
        assert_eq!(r.bottleneck().0, "L");
        assert!(r.bottleneck_utilization > 0.9);
    }

    #[test]
    fn widening_the_pipeline_gives_near_linear_speedup() {
        // Compute-bound: stage 2 dominates → width w divides its throughput.
        let link = LinkSpec {
            bandwidth: 1e9,
            latency: 0.0,
        };
        let n = 64;
        let work = (vec![1.0, 1000.0, 1.0], vec![8.0, 8.0]);
        let t1 = simulate(
            &GridConfig::w_w_1(1, 1e3, link),
            &uniform_packets(n, &work.0, &work.1),
            &[],
        )
        .makespan;
        let t2 = simulate(
            &GridConfig::w_w_1(2, 1e3, link),
            &uniform_packets(n, &work.0, &work.1),
            &[],
        )
        .makespan;
        let t4 = simulate(
            &GridConfig::w_w_1(4, 1e3, link),
            &uniform_packets(n, &work.0, &work.1),
            &[],
        )
        .makespan;
        let s2 = t1 / t2;
        let s4 = t1 / t4;
        assert!(s2 > 1.8 && s2 <= 2.001, "speedup2 = {s2}");
        assert!(s4 > 3.4 && s4 <= 4.001, "speedup4 = {s4}");
    }

    #[test]
    fn heterogeneous_packets_queue_at_bottleneck() {
        let link = LinkSpec {
            bandwidth: 1e6,
            latency: 0.0,
        };
        let g = GridConfig::uniform_chain(2, 1.0, link);
        // second packet is heavy at stage 0; third must wait behind it
        let packets = vec![
            PacketWork {
                comp_ops: vec![1.0, 1.0],
                bytes: vec![0.0],
                read_bytes: 0.0,
            },
            PacketWork {
                comp_ops: vec![10.0, 1.0],
                bytes: vec![0.0],
                read_bytes: 0.0,
            },
            PacketWork {
                comp_ops: vec![1.0, 1.0],
                bytes: vec![0.0],
                read_bytes: 0.0,
            },
        ];
        let r = simulate(&g, &packets, &[]);
        // stage0: 1, then 11, then 12; stage1 finishes at 13
        assert!((r.makespan - 13.0).abs() < 1e-12, "{}", r.makespan);
    }

    #[test]
    fn finalize_tail_extends_makespan() {
        let link = LinkSpec {
            bandwidth: 10.0,
            latency: 0.0,
        };
        let g = GridConfig::uniform_chain(3, 1.0, link);
        let pkts = uniform_packets(2, &[1.0, 1.0, 1.0], &[0.0, 0.0]);
        let base = simulate(&g, &pkts, &[]).makespan;
        let with_tail = simulate(&g, &pkts, &[100.0, 100.0]).makespan;
        assert!(with_tail > base + 9.9, "base {base} tail {with_tail}");
    }

    #[test]
    fn utilization_bounded_by_one() {
        let g = GridConfig::paper_cluster(2);
        let pkts = uniform_packets(32, &[1e6, 5e6, 1e5], &[1e4, 1e3]);
        let r = simulate(&g, &pkts, &[1e3, 1e3]);
        assert!(r.bottleneck_utilization <= 1.0 + 1e-9);
        assert!(r.bottleneck_utilization > 0.0);
    }

    #[test]
    fn zero_packets_is_zero_time() {
        let g = GridConfig::uniform_chain(
            2,
            1.0,
            LinkSpec {
                bandwidth: 1.0,
                latency: 0.0,
            },
        );
        let r = simulate(&g, &[], &[]);
        assert_eq!(r.makespan, 0.0);
    }
}
