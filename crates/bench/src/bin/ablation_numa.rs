//! Ablation: NUMA placement — the paper pins every enclave to a single
//! socket (§5.1); this shows the cross-socket penalty that pinning
//! avoids.

use xemem_bench::driver::ParSession;
use xemem_bench::{ablations::numa, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let size = if args.smoke { 8 << 20 } else { 512 << 20 };
    let iters = args.runs.unwrap_or(if args.smoke { 3 } else { 50 });
    let rows = session
        .run(numa::VARIANTS.len(), |v, tracer| {
            numa::run_variant(v, size, iters, tracer)
        })
        .expect("numa ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.placement.to_string(),
                format!("{:.2}", r.attach_gbps),
                format!("{:.2}", r.attach_read_gbps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: NUMA placement of the exporting enclave",
            &["Placement", "Attach (GB/s)", "Attach+Read (GB/s)"],
            &table,
        )
    );
    session.finish(&args);
}
