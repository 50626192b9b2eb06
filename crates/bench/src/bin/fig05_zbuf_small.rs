//! Reproduces Figure 05 of the paper. See EXPERIMENTS.md.
//! Takes `--trace-out <path>` (or `CGP_TRACE`) and nothing else (see
//! `cgp_bench::harness::figure_main`).

fn main() {
    cgp_bench::harness::figure_main(|| cgp_bench::figures::fig05().map(|f| f.print()));
}
