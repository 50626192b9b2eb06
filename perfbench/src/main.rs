use std::time::Instant;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cgp_perfbench::main_with(&args, started));
}
