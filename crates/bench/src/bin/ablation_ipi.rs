//! Ablation: core-0-restricted IPI handling (the paper's implementation)
//! vs per-channel interrupt handlers (its stated future work).

use xemem_bench::driver::ParSession;
use xemem_bench::{ablations::ipi, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let size = if args.smoke { 4 << 20 } else { 128 << 20 };
    let iters = args.runs.unwrap_or(if args.smoke { 4 } else { 100 });
    let rows = session
        .run(ipi::VARIANTS.len(), |v, tracer| {
            ipi::run_variant(v, size, iters, tracer)
        })
        .expect("ipi ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                format!("{:.2}", r.gbps),
                format!("{:.1}", r.core0_wait_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: IPI handler placement (8 enclaves, 1:1 attachments)",
            &["Variant", "GB/s per pair", "core-0 queueing (us)"],
            &table,
        )
    );
    session.finish(&args);
}
