//! Ablation: the VMM guest memory map — the paper's red-black tree vs
//! its proposed radix-tree future work, with and without run coalescing.

use xemem_bench::driver::ParSession;
use xemem_bench::{ablations::memmap, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let size = if args.smoke { 8 << 20 } else { 512 << 20 };
    let iters = args.runs.unwrap_or(if args.smoke { 3 } else { 25 });
    let rows = session
        .run(memmap::VARIANTS.len(), |v, tracer| {
            memmap::run_variant(v, size, iters, tracer)
        })
        .expect("memmap ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                format!("{:.2}", r.gbps),
                r.entries.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: VMM memory-map structure (guest attach path)",
            &["Variant", "GB/s", "map entries"],
            &table,
        )
    );
    session.finish(&args);
}
