//! Regenerates paper Fig. 7: noise profile of a Kitten enclave serving
//! XEMEM attachment requests on a single core.

use xemem_bench::driver::ParSession;
use xemem_bench::{fig7, render_table, Args};

fn main() {
    let args = Args::parse();
    let mut session = ParSession::new(&args);
    let (regions, window): (Vec<u64>, u64) = if args.smoke {
        (vec![4 << 10, 2 << 20, 64 << 20], 4)
    } else {
        (vec![4 << 10, 2 << 20, 1 << 30], 10)
    };
    let series = session
        .run(regions.len(), |i, tracer| {
            fig7::run_region(regions[i], window, 0xF17u64, tracer)
        })
        .expect("fig7 experiment");
    for s in &series {
        let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for sample in &s.samples {
            by_kind
                .entry(kind_key(&sample.kind))
                .or_default()
                .push(sample.detour_us);
        }
        let rows: Vec<Vec<String>> = by_kind
            .iter()
            .map(|(k, v)| {
                let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = v.iter().cloned().fold(0.0, f64::max);
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                vec![
                    k.to_string(),
                    v.len().to_string(),
                    format!("{min:.1}"),
                    format!("{mean:.1}"),
                    format!("{max:.1}"),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "Figure 7: detours over {window}s, {} region (paper: hw ~12us, SMI ~100us, 1GB attach ~23,200-23,800us)",
                    human(s.region)
                ),
                &["kind", "count", "min (us)", "mean (us)", "max (us)"],
                &rows,
            )
        );
    }
    session.finish(&args);
}

fn kind_key(k: &str) -> &'static str {
    match k {
        "Hardware" => "Hardware",
        "Smi" => "Smi",
        "AttachService" => "AttachService",
        "TimerTick" => "TimerTick",
        _ => "Daemon",
    }
}

fn human(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{} GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}
