//! Regenerates paper Table 2: cross-enclave throughput with VM
//! enclaves, with and without red-black-tree insertion time.

use xemem_bench::driver::ParSession;
use xemem_bench::{render_table, table2, Args};

fn main() {
    let args = Args::parse();
    let size = if args.smoke { 16 << 20 } else { 1 << 30 };
    let iters = args.runs.unwrap_or(if args.smoke { 3 } else { 100 });
    let mut session = ParSession::new(&args);
    let rows = session
        .run(table2::ROWS, |r, tracer| {
            table2::run_row(r, size, iters, tracer)
        })
        .expect("table2 experiment");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.exporting.to_string(),
                r.attaching.to_string(),
                format!("{:.3}", r.gbps),
                r.gbps_without_rb
                    .map(|g| format!("{g:.2}"))
                    .unwrap_or_else(|| "(N/A)".into()),
                r.map_update_fraction
                    .map(|f| format!("{:.0}%", f * 100.0))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Table 2: VM shared-memory throughput (paper: 12.841 / 3.991 (8.79) / 12.606 GB/s; ~80% map updates)",
            &["Exporting", "Attaching", "GB/s", "w/o rb-tree", "map-update share"],
            &table,
        )
    );
    session.finish(&args);
}
