//! Fig. 8 — single-node in situ benchmark across enclave configurations.
//!
//! Paper setup: HPCCG (600 iterations, 15 communication points)
//! composed with STREAM over a 512 MB region on a 4-core node, across
//! the four Table 3 enclave configurations × {synchronous,
//! asynchronous} × {one-time, recurring} attachment models; each bar is
//! the mean ± stddev of 10 runs.
//!
//! Expected shape (paper): async beats sync everywhere;
//! Kitten-simulation configurations beat Linux/Linux and have far
//! smaller variance; recurring+synchronous is the worst case for the
//! virtualized analytics configurations; Linux/Linux suffers extra
//! overhead and variance under recurring attachments (page-fault
//! semantics).

use xemem::{TraceHandle, XememError};
use xemem_sim::stats::Summary;
use xemem_workloads::insitu::{
    run_insitu_traced, AnalyticsEnclave, AttachModel, ExecutionModel, InsituConfig, SimEnclave,
};

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Fig8Bar {
    /// Enclave configuration label (Table 3).
    pub config: &'static str,
    /// Execution model label.
    pub execution: &'static str,
    /// Attachment model label.
    pub attach: &'static str,
    /// Mean completion time of the HPC simulation, seconds.
    pub mean_secs: f64,
    /// Standard deviation across runs, seconds.
    pub stddev_secs: f64,
    /// Runs.
    pub runs: u32,
}

fn label(e: ExecutionModel) -> &'static str {
    match e {
        ExecutionModel::Synchronous => "Synchronous",
        ExecutionModel::Asynchronous => "Asynchronous",
    }
}

fn attach_label(a: AttachModel) -> &'static str {
    match a {
        AttachModel::OneTime => "one-time",
        AttachModel::Recurring => "recurring",
    }
}

/// One bar spec: the attachment model, execution model and Table 3
/// configuration behind one bar of the figure.
pub type BarSpec = (
    AttachModel,
    ExecutionModel,
    SimEnclave,
    AnalyticsEnclave,
    &'static str,
);

/// The figure's bars in output order — the unit list the parallel run
/// driver shards.
pub fn grid() -> Vec<BarSpec> {
    let mut specs = Vec::new();
    for attach in [AttachModel::OneTime, AttachModel::Recurring] {
        for execution in [ExecutionModel::Synchronous, ExecutionModel::Asynchronous] {
            for (sim, ana, name) in InsituConfig::table3() {
                specs.push((attach, execution, sim, ana, name));
            }
        }
    }
    specs
}

/// Run one bar: `runs` repetitions of one configuration. Per-repetition
/// seeds are a pure function of the run index and config name, so bars
/// are independent and scheduling cannot shift any bar's entropy; the
/// bar's charges all land on its own `tracer`.
pub fn run_bar(
    spec: BarSpec,
    runs: u32,
    smoke: bool,
    tracer: &TraceHandle,
) -> Result<Fig8Bar, XememError> {
    let (attach, execution, sim, ana, name) = spec;
    let mut times = Vec::new();
    for run_idx in 0..runs {
        let mut cfg = if smoke {
            InsituConfig::smoke(sim, ana, execution, attach)
        } else {
            InsituConfig::fig8(sim, ana, execution, attach, 0)
        };
        cfg.seed = 0xF16_8000 + run_idx as u64 * 977 + hash_name(name);
        let r = run_insitu_traced(&cfg, tracer)?;
        assert!(r.verified, "data verification failed for {name}");
        times.push(r.sim_completion.as_secs_f64());
    }
    let s = Summary::of(&times);
    Ok(Fig8Bar {
        config: name,
        execution: label(execution),
        attach: attach_label(attach),
        mean_secs: s.mean,
        stddev_secs: s.stddev,
        runs,
    })
}

/// Run the full figure (both panels) with `runs` repetitions per bar.
/// In smoke mode a scaled-down workload is used.
pub fn run(runs: u32, smoke: bool) -> Result<Vec<Fig8Bar>, XememError> {
    grid()
        .into_iter()
        .map(|s| run_bar(s, runs, smoke, &TraceHandle::disabled()))
        .collect()
}

fn hash_name(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
}

/// The configurations usable for quick assertions in tests.
pub fn find<'a>(bars: &'a [Fig8Bar], config: &str, execution: &str, attach: &str) -> &'a Fig8Bar {
    bars.iter()
        .find(|b| b.config == config && b.execution == execution && b.attach == attach)
        .expect("bar exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shape_holds() {
        let bars = run(2, true).unwrap();
        assert_eq!(bars.len(), 16);
        // Async ≤ sync for the same config/model (analytics overlap).
        let sync = find(&bars, "Kitten/Linux", "Synchronous", "one-time");
        let asynch = find(&bars, "Kitten/Linux", "Asynchronous", "one-time");
        assert!(asynch.mean_secs < sync.mean_secs);
        // Recurring costs at least as much as one-time for the VM config.
        let rec = find(
            &bars,
            "Kitten/Linux VM (Linux Host)",
            "Synchronous",
            "recurring",
        );
        let one = find(
            &bars,
            "Kitten/Linux VM (Linux Host)",
            "Synchronous",
            "one-time",
        );
        assert!(rec.mean_secs >= one.mean_secs);
    }
}
