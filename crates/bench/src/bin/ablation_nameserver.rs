//! Ablation: name-server placement — management enclave vs co-kernel.

use xemem_bench::driver::ParSession;
use xemem_bench::{ablations::name_server, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let iters = args.runs.unwrap_or(if args.smoke { 5 } else { 200 });
    let rows = session
        .run(name_server::VARIANTS.len(), |v, tracer| {
            name_server::run_variant(v, iters, tracer)
        })
        .expect("name-server ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.placement.to_string(),
                format!("{:.2}", r.make_us),
                format!("{:.2}", r.get_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: name-server placement (control-operation latency)",
            &[
                "Placement",
                "xpmem_make from kitten0 (us)",
                "xpmem_get from kitten1 (us)"
            ],
            &table,
        )
    );
    session.finish(&args);
}
