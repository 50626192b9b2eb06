//! Ablation: the storage model. With data on 2003-era disks at the data
//! nodes, reading dominates both versions and the decomposition gain
//! compresses — the regime the headline figures avoid by keeping datasets
//! memory-resident (as the paper's repeated-run measurements would).
//!
//! Each packet's data-stage read is its share of the grid's raw scalar
//! bytes, charged against the data host's disk.

use cgp_bench::figures::iso;
use cgp_core::apps::dialect::ZBUF_SRC;
use cgp_core::grid::simulate;
use cgp_core::{profile_plan, DISK_BANDWIDTH};

fn main() {
    let (grid, app) = iso(false, ZBUF_SRC);
    let mut profiles = Vec::new();
    for (name, plan) in app.series(None).expect("zbuf compiles") {
        if name == "Default" || name == "Decomp" {
            let mut p = profile_plan(&plan, &app.host).expect("zbuf profiles");
            let read = grid.bytes() as f64 / p.packets.len() as f64;
            for w in &mut p.packets {
                w.read_bytes = read;
            }
            println!("{name}: unit_of {:?}", plan.decomposition.unit_of);
            profiles.push(p);
        }
    }
    let [d, c] = &profiles[..] else {
        panic!("expected the Default and Decomp series");
    };
    assert_eq!(d.output, c.output, "both placements print the same");
    println!("\nzbuf small dataset, 1-1-1, memory-resident vs disk-resident data:\n");
    println!(
        "{:<18} {:>12} {:>12} {:>8}",
        "storage", "Default(s)", "Decomp(s)", "gain"
    );
    for disk in [false, true] {
        let base = app.grid(1);
        let grid = if disk {
            base.with_stage0_disk(DISK_BANDWIDTH)
        } else {
            base
        };
        let d = simulate(&grid, &d.packets, &d.finalize_bytes).makespan;
        let c = simulate(&grid, &c.packets, &c.finalize_bytes).makespan;
        println!(
            "{:<18} {:>12.4} {:>12.4} {:>7.1}%",
            if disk { "disk 35 MB/s" } else { "memory" },
            d,
            c,
            (d / c - 1.0) * 100.0
        );
    }
}
