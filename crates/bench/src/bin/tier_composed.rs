//! Tiered-memory composed workload: static NVM placement vs the
//! hot/cold migration policy on a phase-shifting read schedule, the
//! migration-hysteresis ablation, and the attach-bandwidth-vs-tier
//! figure. Output is byte-identical at any `--jobs` and any `--lanes`.

use xemem_bench::driver::ParSession;
use xemem_bench::{render_table, tier_composed, Args};

fn main() {
    let args = Args::parse();
    // Always trace: migration spans, copy/remap leaves and causal
    // edges must pass the session epilogue's conservation audit.
    let mut session = ParSession::always_traced(&args);
    let (composed, bw) = tier_composed::run(&mut session, args.smoke, args.effective_lanes())
        .expect("tier composed sweep");

    let table: Vec<Vec<String>> = composed
        .iter()
        .map(|r| {
            vec![
                r.unit.to_string(),
                r.hysteresis.clone(),
                r.reads.to_string(),
                r.promotions.to_string(),
                r.demotions.to_string(),
                r.pages_moved.to_string(),
                r.workload_ns.to_string(),
                r.clock_ns.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Composed workload: hysteresis ablation (unit 0 = static NVM placement)",
            &[
                "Unit",
                "Hysteresis",
                "Reads",
                "Promotions",
                "Demotions",
                "PagesMoved",
                "WorkloadNs",
                "FinalClockNs"
            ],
            &table,
        )
    );
    let off = &composed[0];
    for r in &composed[1..] {
        println!(
            "speedup vs static (hysteresis {}): {:.2}x",
            r.hysteresis,
            off.workload_ns as f64 / r.workload_ns as f64
        );
    }

    let bw_table: Vec<Vec<String>> = bw
        .iter()
        .map(|r| {
            vec![
                r.tier.clone(),
                (r.bytes >> 20).to_string(),
                r.attach_ns.to_string(),
                r.read_ns.to_string(),
                format!("{:.3}", r.read_gbps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Attach bandwidth vs resident tier (16 MiB segment, virtual time)",
            &["Tier", "MiB", "AttachNs", "ReadNs", "ReadGBps"],
            &bw_table,
        )
    );

    session.finish(&args);
}
