//! Name-service chaos suite: 10,000 enclaves across 40 independent
//! node sessions, millions of operations, shard outages and replica
//! crashes injected mid-run. Asserts zero leaked frames and zero
//! post-revocation stale lease reads per unit; the session epilogue
//! conservation-audits every unit's tracer. Output is byte-identical
//! at any `--jobs`.

use xemem_bench::driver::ParSession;
use xemem_bench::{nameserver_chaos, render_table, Args};

fn main() {
    let args = Args::parse();
    // Always trace: the conservation audit is part of the suite's
    // contract, and per-run tracers keep `--jobs N` deterministic.
    let mut session = ParSession::always_traced(&args);
    let rows = nameserver_chaos::run(&mut session, args.smoke, args.effective_lanes())
        .expect("name-service chaos suite");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.unit.to_string(),
                r.enclaves.to_string(),
                r.ok_ops.to_string(),
                r.failed_ops.to_string(),
                r.failovers.to_string(),
                r.lost_registrations.to_string(),
                r.stale_reads.to_string(),
                r.clock_ns.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Name-service chaos suite (per independent node session)",
            &[
                "Unit",
                "Enclaves",
                "OkOps",
                "FailedOps",
                "Failovers",
                "LostRegs",
                "StaleReads",
                "FinalClockNs"
            ],
            &table,
        )
    );
    let enclaves: usize = rows.iter().map(|r| r.enclaves).sum();
    let ops: u64 = rows.iter().map(|r| r.ok_ops + r.failed_ops).sum();
    let failovers: u64 = rows.iter().map(|r| r.failovers).sum();
    let stale: u64 = rows.iter().map(|r| r.stale_reads).sum();
    println!(
        "totals: {} units, {enclaves} enclaves, {ops} ops, {failovers} failovers, {stale} stale reads",
        rows.len()
    );
    session.finish(&args);
}
