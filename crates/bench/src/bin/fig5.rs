//! Regenerates paper Fig. 5: cross-enclave throughput using shared
//! memory and RDMA verbs over InfiniBand.

use xemem_bench::driver::ParSession;
use xemem_bench::{fig5, render_table, Args, SMOKE_SIZES, SWEEP_SIZES};

fn main() {
    let args = Args::parse();
    let sizes: Vec<u64> = if args.smoke {
        SMOKE_SIZES.to_vec()
    } else {
        SWEEP_SIZES.to_vec()
    };
    let iters = args.runs.unwrap_or(if args.smoke { 5 } else { 500 });
    let mut session = ParSession::new(&args);
    let rows = session
        .run(sizes.len(), |i, tracer| {
            fig5::run_size(sizes[i], iters, tracer)
        })
        .expect("fig5 experiment");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.size >> 20),
                format!("{:.2}", r.attach_gbps),
                format!("{:.2}", r.attach_read_gbps),
                format!("{:.2}", r.rdma_gbps),
                format!("{}", r.iterations),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5: cross-enclave throughput, XEMEM vs RDMA Verbs/IB (paper: ~13 / ~12 / <3.5 GB/s)",
            &["Size (MB)", "Attach (GB/s)", "Attach+Read (GB/s)", "RDMA (GB/s)", "iters"],
            &table,
        )
    );
    session.finish(&args);
}
