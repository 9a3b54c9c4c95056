//! Regenerates paper Fig. 8: single-node in situ benchmark across the
//! Table 3 enclave configurations.

use xemem_bench::driver::ParSession;
use xemem_bench::{fig8, pm, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let runs = args.runs.unwrap_or(if args.smoke { 2 } else { 10 });
    let grid = fig8::grid();
    let bars = session
        .run(grid.len(), |i, tracer| {
            fig8::run_bar(grid[i], runs, args.smoke, tracer)
        })
        .expect("fig8 experiment");
    for attach in ["one-time", "recurring"] {
        let rows: Vec<Vec<String>> = bars
            .iter()
            .filter(|b| b.attach == attach)
            .map(|b| {
                vec![
                    b.execution.to_string(),
                    b.config.to_string(),
                    pm(b.mean_secs, b.stddev_secs),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "Figure 8({}): in situ completion time, {attach} attachments (paper range ~140-160s)",
                    if attach == "one-time" { "a" } else { "b" }
                ),
                &["Execution", "Configuration", "Time (s)"],
                &rows,
            )
        );
    }
    session.finish(&args);
}
