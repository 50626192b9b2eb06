//! Data-plane regression guard.
//!
//! Measures packet-echo throughput in the legacy (per-packet, no pool)
//! and batched + pooled configurations, plus the distributed echo over
//! both same-host transports (loopback TCP vs shared memory), and
//! compares against the committed `BENCH_dataplane.json` baseline:
//!
//! ```sh
//! cargo run --release -p cgp-bench --bin dataplane_guard            # check
//! cargo run --release -p cgp-bench --bin dataplane_guard -- --record
//! ```
//!
//! The check fails (exit 1) if:
//!
//! * batched throughput drops more than 30% below its baseline,
//! * the batched/legacy speedup falls below 1.5× (baseline records ≥ 2×),
//! * the shm transport fails to beat loopback TCP on the same run, or
//! * enabling telemetry sampling costs more than 5% of the batched rate.
//!
//! `--record` rewrites the baseline from a fresh measurement.
//!
//! Env knobs for CI smoke mode: `CGP_GUARD_PACKETS` (default 16384),
//! `CGP_GUARD_DIST_PACKETS` (default 8192), `CGP_GUARD_REPS` (default
//! 11), `CGP_GUARD_BASELINE` (path). The defaults are sized so the telemetry plane's fixed
//! per-run setup (sampler thread, probes — tens of µs) amortizes below
//! the 5% sampling tolerance and paired best-of filters scheduler
//! noise.

use cgp_bench::dataplane::{
    echo_packets_per_sec, echo_paired_packets_per_sec, transport_paired_packets_per_sec, EchoConfig,
};
use cgp_core::datacutter::shm_supported;

const PAYLOAD: usize = 1024;
/// Cross-machine tolerance for the absolute-throughput checks.
const DROP_TOLERANCE: f64 = 0.30;
/// Machine-independent floor on the batched/legacy speedup.
const SPEEDUP_FLOOR: f64 = 1.5;
/// The shm transport must beat loopback TCP on the same run.
const SHM_OVER_TCP_FLOOR: f64 = 1.0;
/// Telemetry sampling may cost at most this fraction of batched
/// throughput (the probes are relaxed atomics off the packet path).
const SAMPLING_TOLERANCE: f64 = 0.05;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Pull the number following `"key":` out of the baseline JSON. The file
/// is flat and written by this binary, so a scan beats a parser dep.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    let baseline_path =
        std::env::var("CGP_GUARD_BASELINE").unwrap_or_else(|_| "BENCH_dataplane.json".to_string());
    let packets = env_usize("CGP_GUARD_PACKETS", 16384);
    let dist_packets = env_usize("CGP_GUARD_DIST_PACKETS", 8192);
    let reps = env_usize("CGP_GUARD_REPS", 11);

    let legacy_cfg = EchoConfig::legacy(packets, PAYLOAD);
    let batched_cfg = EchoConfig::batched(packets, PAYLOAD);
    // Warm both paths once so thread-spawn and allocator cold costs do
    // not land on the first timed rep.
    let _ = echo_packets_per_sec(&legacy_cfg, 1);
    let _ = echo_packets_per_sec(&batched_cfg, 1);
    let legacy = echo_packets_per_sec(&legacy_cfg, reps);
    // Paired (interleaved) reps wherever two rates are compared against
    // each other: the tolerances are below run-to-run machine noise, so
    // both configurations must sample the same noise window. The
    // batched rate comes from the first pair, beside a configuration of
    // its own speed, as the baseline's was recorded.
    // A first sampling estimate over the tolerance is re-measured once
    // with doubled reps — scheduler noise shrinks with samples, a real
    // regression does not.
    let sampled_cfg = batched_cfg.clone().with_sampling();
    let (batched, mut sampled) = echo_paired_packets_per_sec(&batched_cfg, &sampled_cfg, reps);
    let mut batched_s = batched;
    if sampled < batched_s * (1.0 - SAMPLING_TOLERANCE) {
        eprintln!(
            "note: sampling estimate {:.1}% over tolerance; re-measuring with {} reps",
            (1.0 - sampled / batched_s) * 100.0,
            reps * 2
        );
        (batched_s, sampled) = echo_paired_packets_per_sec(&batched_cfg, &sampled_cfg, reps * 2);
    }
    let speedup = batched / legacy;
    let sampling_cost = 1.0 - sampled / batched_s;

    // Same-host transports: distributed echo across three worker
    // threads, loopback TCP vs shared memory (skipped where shm is
    // unsupported — the launcher falls back to TCP there too).
    let (tcp, shm) = if shm_supported() {
        transport_paired_packets_per_sec(dist_packets, PAYLOAD, reps)
    } else {
        (0.0, 0.0)
    };

    println!("packet-echo ({packets} packets x {PAYLOAD} B, best of {reps}):");
    println!("  legacy  (batch=1, no pool): {legacy:>12.0} packets/s");
    println!(
        "  batched (batch={}, pooled):  {batched:>12.0} packets/s",
        batched_cfg.batch
    );
    println!("  sampled (telemetry on):     {sampled:>12.0} packets/s");
    println!("  batched/legacy speedup: {speedup:.2}x");
    println!("  sampling cost: {:.1}%", sampling_cost.max(0.0) * 100.0);
    if shm_supported() {
        println!("distributed echo ({dist_packets} packets x {PAYLOAD} B, 3 workers):");
        println!("  tcp (loopback):             {tcp:>12.0} packets/s");
        println!("  shm (shared-memory ring):   {shm:>12.0} packets/s");
        println!("  shm/tcp speedup:        {:.2}x", shm / tcp);
    } else {
        println!("distributed echo: shm transport unsupported on this platform; skipped");
    }

    if record {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"dataplane_packet_echo\",\n",
                "  \"packets\": {packets},\n",
                "  \"payload_bytes\": {payload},\n",
                "  \"batch\": {batch},\n",
                "  \"legacy_packets_per_sec\": {legacy:.0},\n",
                "  \"batched_packets_per_sec\": {batched:.0},\n",
                "  \"speedup\": {speedup:.2},\n",
                "  \"dist_packets\": {dist_packets},\n",
                "  \"tcp_packets_per_sec\": {tcp:.0},\n",
                "  \"shm_packets_per_sec\": {shm:.0},\n",
                "  \"shm_over_tcp\": {shm_over_tcp:.2}\n",
                "}}\n"
            ),
            packets = packets,
            payload = PAYLOAD,
            batch = batched_cfg.batch,
            legacy = legacy,
            batched = batched,
            speedup = speedup,
            dist_packets = dist_packets,
            tcp = tcp,
            shm = shm,
            shm_over_tcp = if tcp > 0.0 { shm / tcp } else { 0.0 },
        );
        std::fs::write(&baseline_path, json).expect("write baseline");
        println!("baseline written to {baseline_path}");
        return;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read baseline {baseline_path}: {e}");
            eprintln!("      (record one with `--record`)");
            std::process::exit(1);
        }
    };
    let base_batched = json_f64(&text, "batched_packets_per_sec")
        .expect("baseline missing batched_packets_per_sec");

    let mut failed = false;
    let mut check_drop = |name: &str, measured: f64, base: f64| {
        let floor = base * (1.0 - DROP_TOLERANCE);
        if measured < floor {
            eprintln!(
                "FAIL: {name} throughput {measured:.0} packets/s is more than {:.0}% below \
                 the baseline {base:.0} packets/s (floor {floor:.0})",
                DROP_TOLERANCE * 100.0
            );
            failed = true;
        }
    };
    check_drop("batched", batched, base_batched);
    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: batched/legacy speedup {speedup:.2}x is below the {SPEEDUP_FLOOR:.1}x floor"
        );
        failed = true;
    }
    if shm_supported() && shm < tcp * SHM_OVER_TCP_FLOOR {
        eprintln!(
            "FAIL: shm transport ({shm:.0} packets/s) does not beat loopback TCP \
             ({tcp:.0} packets/s)"
        );
        failed = true;
    }
    if sampled < batched_s * (1.0 - SAMPLING_TOLERANCE) {
        eprintln!(
            "FAIL: telemetry sampling costs {:.1}% of batched throughput \
             ({sampled:.0} vs {batched_s:.0} packets/s; tolerance {:.0}%)",
            sampling_cost * 100.0,
            SAMPLING_TOLERANCE * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: within {:.0}% of baseline ({base_batched:.0} packets/s batched), above the \
         {SPEEDUP_FLOOR:.1}x batched speedup floor, \
         shm beats loopback TCP, and sampling within {:.0}%",
        DROP_TOLERANCE * 100.0,
        SAMPLING_TOLERANCE * 100.0
    );
}
