//! Ablation (extension beyond the paper): huge-page attachment mapping.
//! LWK-exported memory is physically contiguous, so the attaching FWK
//! can install 2 MiB leaves instead of per-page PTEs.

use xemem_bench::driver::ParSession;
use xemem_bench::{ablations::hugepages, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let size = if args.smoke { 16 << 20 } else { 512 << 20 };
    let iters = args.runs.unwrap_or(if args.smoke { 3 } else { 50 });
    let rows = session
        .run(hugepages::VARIANTS.len(), |v, tracer| {
            hugepages::run_variant(v, size, iters, tracer)
        })
        .expect("hugepage ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.variant.to_string(), format!("{:.2}", r.gbps)])
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: attachment mapping granularity (Kitten export -> Linux attach)",
            &["Variant", "Attach (GB/s)"],
            &table,
        )
    );
    session.finish(&args);
}
