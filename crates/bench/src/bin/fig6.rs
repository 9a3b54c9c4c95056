//! Regenerates paper Fig. 6: cross-enclave throughput vs number of
//! concurrently executing co-kernel enclaves.

use xemem_bench::driver::ParSession;
use xemem_bench::{fig6, render_table, Args, SMOKE_SIZES, SWEEP_SIZES};

fn main() {
    let args = Args::parse();
    let sizes: Vec<u64> = if args.smoke {
        SMOKE_SIZES.to_vec()
    } else {
        SWEEP_SIZES.to_vec()
    };
    let counts = [1u32, 2, 4, 8];
    let grid = fig6::grid(&counts, &sizes);
    let mut session = ParSession::new(&args);
    let lanes = args.effective_lanes();
    let cells = session
        .run(grid.len(), |i, tracer| {
            let (n, size) = grid[i];
            fig6::run_cell_lanes(
                n,
                size,
                fig6::default_iters(n, size, args.smoke),
                lanes,
                tracer,
            )
        })
        .expect("fig6 experiment");
    // One row per enclave count, one column per size.
    let mut rows = Vec::new();
    for &n in &counts {
        let mut row = vec![n.to_string()];
        for &s in &sizes {
            let cell = cells
                .iter()
                .find(|c| c.enclaves == n && c.size == s)
                .unwrap();
            row.push(format!("{:.2}", cell.gbps));
        }
        rows.push(row);
    }
    let mut headers = vec!["Enclaves".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{} MB (GB/s)", s >> 20)));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!(
        "{}",
        render_table(
            "Figure 6: throughput vs number of enclaves (paper: ~13 at 1, slight dip at 2, flat to 8)",
            &headers_ref,
            &rows,
        )
    );
    session.finish(&args);
}
