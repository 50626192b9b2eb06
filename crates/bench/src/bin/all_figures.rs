//! Runs every figure harness and prints both the console tables and the
//! Markdown blocks EXPERIMENTS.md embeds. Takes `--trace-out <path>` (or
//! `CGP_TRACE`) and nothing else (see `cgp_bench::harness::figure_main`).
use cgp_bench::figures;

fn main() {
    cgp_bench::harness::figure_main(|| {
        let figs = [
            figures::fig05(),
            figures::fig06(),
            figures::fig07(),
            figures::fig08(),
            figures::fig09(),
            figures::fig10(),
            figures::fig11(),
            figures::fig12(),
        ];
        for f in &figs {
            f.print();
        }
        println!("---- markdown ----\n");
        for f in &figs {
            println!("{}", f.to_markdown());
        }
    });
}
