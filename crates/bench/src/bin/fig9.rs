//! Regenerates paper Fig. 9: multi-node in situ weak scaling,
//! Linux-only vs multi-enclave.

use xemem_bench::driver::ParSession;
use xemem_bench::{fig9, pm, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let runs = args.runs.unwrap_or(if args.smoke { 2 } else { 5 });
    let counts = [1u32, 2, 4, 8];
    let grid = fig9::grid(&counts);
    let points = session
        .run(grid.len(), |i, tracer| {
            fig9::run_point(grid[i], runs, args.smoke, tracer)
        })
        .expect("fig9 experiment");
    for attach in ["one-time", "recurring"] {
        let mut rows = Vec::new();
        for &n in &counts {
            let linux = fig9::find(&points, n, "Linux Only", attach);
            let multi = fig9::find(&points, n, "Multi Enclave", attach);
            rows.push(vec![
                n.to_string(),
                pm(linux.mean_secs, linux.stddev_secs),
                pm(multi.mean_secs, multi.stddev_secs),
            ]);
        }
        println!(
            "{}",
            render_table(
                &format!(
                    "Figure 9({}): weak scaling, {attach} attachments (paper: Linux-only rises 44->52s; multi-enclave flat ~46-47s)",
                    if attach == "one-time" { "a" } else { "b" }
                ),
                &["Nodes", "Linux Only (s)", "Multi Enclave (s)"],
                &rows,
            )
        );
    }
    session.finish(&args);
}
