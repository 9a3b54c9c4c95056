//! Scaling figure: lookup p50/p99 vs name-service shard count vs
//! shard-outage rate.

use xemem_bench::{nameserver_scaling, render_table, Args};

fn main() {
    let args = Args::parse();
    let cells = nameserver_scaling::run(args.effective_jobs(), args.smoke)
        .expect("name-service scaling figure");
    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                c.outages.to_string(),
                c.lookups.to_string(),
                c.unavailable.to_string(),
                format!("{:.2}", c.p50_us),
                format!("{:.2}", c.p99_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Name-service scaling: lookup latency vs shards vs outage rate (virtual time)",
            &["Shards", "Outages", "Lookups", "Unavail", "p50 (us)", "p99 (us)"],
            &table,
        )
    );
}
