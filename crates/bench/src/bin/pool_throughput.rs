//! Buffer-pool throughput sweep: acquire/release and ring ops per
//! virtual second vs consumer-enclave count, with a crash sweep
//! injected mid-run on every multi-consumer unit. Each unit asserts
//! exactly-once reclamation and a clean end-of-run leak check; the
//! session epilogue conservation-audits every unit's tracer. Output is
//! byte-identical at any `--jobs` and any `--lanes`.

use xemem_bench::driver::ParSession;
use xemem_bench::{pool_throughput, render_table, Args};

fn main() {
    let args = Args::parse();
    // Always trace: the conservation audit is part of the suite's
    // contract, and per-run tracers keep `--jobs N` deterministic.
    let mut session = ParSession::always_traced(&args);
    let rows = pool_throughput::run(&mut session, args.smoke, args.effective_lanes())
        .expect("pool throughput sweep");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.unit.to_string(),
                r.enclaves.to_string(),
                r.acquires.to_string(),
                r.releases.to_string(),
                r.published.to_string(),
                r.consumed.to_string(),
                r.swept.to_string(),
                r.failed_ops.to_string(),
                r.ring_peak.to_string(),
                r.ops_per_vms.to_string(),
                r.clock_ns.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Buffer-pool throughput (per consumer-enclave count)",
            &[
                "Unit",
                "Enclaves",
                "Acquires",
                "Releases",
                "Published",
                "Consumed",
                "Swept",
                "FailedOps",
                "RingPeak",
                "OpsPerVms",
                "FinalClockNs"
            ],
            &table,
        )
    );
    let ops: u64 = rows
        .iter()
        .map(|r| r.acquires + r.releases + r.published + r.consumed)
        .sum();
    let swept: u64 = rows.iter().map(|r| r.swept).sum();
    println!(
        "totals: {} units, {ops} pool ops, {swept} refs crash-swept",
        rows.len()
    );
    session.finish(&args);
}
