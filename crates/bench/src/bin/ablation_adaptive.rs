//! Ablation: adapting the decomposition when the environment changes at
//! runtime (the paper's future work: "an environment where available
//! compute and communication resources can change at runtime").
//!
//! Scenario (z-buffer isosurface at Figure 5's size): during phase 1 the
//! data host is shared with another job (its available power drops 6×)
//! while the network is fast — the Default placement should win because
//! it keeps the loaded data host down to reading cubes. In phase 2 the
//! data host frees up but the link collapses — the compiler's
//! decomposition should win because less crosses the link. Re-decomposing
//! at the switch should beat both static choices.

use cgp_bench::figures::iso;
use cgp_core::apps::dialect::ZBUF_SRC;
use cgp_core::grid::{simulate_phased, GridConfig, LinkSpec, PacketWork, Phase};
use cgp_core::{profile_plan, PlanProfile, CALIBRATION, PENTIUM_SLOWDOWN};

fn grid(bandwidth: f64, data_host_share: f64) -> GridConfig {
    let mut g = GridConfig::w_w_1(
        1,
        CALIBRATION / PENTIUM_SLOWDOWN,
        LinkSpec {
            bandwidth,
            latency: 2.0e-5,
        },
    );
    for h in &mut g.stages[0].hosts {
        h.power *= data_host_share;
    }
    g
}

fn halves(p: &PlanProfile) -> (&[PacketWork], &[PacketWork]) {
    p.packets.split_at(p.packets.len() / 2)
}

fn main() {
    // Phase 1: loaded data host (1/6 power), fast link. Phase 2: idle data
    // host, collapsed link.
    let (phase1, phase2) = (grid(2.0e8, 1.0 / 6.0), grid(5.0e6, 1.0));
    let (_, app) = iso(false, ZBUF_SRC);
    let series = app.series(None).expect("zbuf compiles");
    let profile = |name: &str| {
        let (_, plan) = series.iter().find(|(n, _)| n == name).expect(name);
        println!("{name}: unit_of {:?}", plan.decomposition.unit_of);
        profile_plan(plan, &app.host).expect(name)
    };
    let (def, dec) = (profile("Default"), profile("Decomp"));
    assert_eq!(def.output, dec.output, "both placements print the same");
    let (def_a, def_b) = halves(&def);
    let (dec_a, dec_b) = halves(&dec);
    let penalty = 0.01; // drain + re-place filters

    // The run ends on the second half's placement, which ships its state.
    let run = |a: &[PacketWork], b: &[PacketWork], last: &PlanProfile, switch: bool| {
        simulate_phased(
            &[
                Phase {
                    grid: phase1.clone(),
                    packets: a.to_vec(),
                },
                Phase {
                    grid: phase2.clone(),
                    packets: b.to_vec(),
                },
            ],
            &[switch],
            if switch { penalty } else { 0.0 },
            &last.finalize_bytes,
        )
        .makespan
    };
    let static_default = run(def_a, def_b, &def, false);
    let static_decomp = run(dec_a, dec_b, &dec, false);
    let adaptive = run(def_a, dec_b, &dec, true);

    println!("\nzbuf 40^3: phase 1 = loaded data host + 200 MB/s; phase 2 = idle host + 5 MB/s\n");
    println!("  static Default         : {static_default:.4} s");
    println!("  static Decomp          : {static_decomp:.4} s");
    println!("  adaptive (re-decompose): {adaptive:.4} s  (includes {penalty}s redeploy)");
    let best_static = static_default.min(static_decomp);
    println!(
        "\nadaptive vs best static: {:.1}% faster",
        (best_static / adaptive - 1.0) * 100.0
    );
    assert!(
        adaptive < best_static,
        "adaptation must beat both static choices in this scenario"
    );
}
