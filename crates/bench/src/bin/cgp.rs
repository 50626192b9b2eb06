//! `cgp <zbuf|apix|knn|vmscope> [flags]`: compile one of the four demo
//! apps, run it and compare its output with the oracle — in-process, or
//! as the launcher or one worker of a run split across processes. See
//! `cgp_bench::harness` for the flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cgp_bench::harness::cgp_main(&args));
}
