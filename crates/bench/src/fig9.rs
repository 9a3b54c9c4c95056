//! Fig. 9 — multi-node in situ benchmark, weak scaling.
//!
//! Paper setup: 1–8 nodes; each node runs the in situ pair with either
//! both components in native Linux ("Linux Only") or the simulation in a
//! Palacios VM on an isolated Kitten co-kernel host ("Multi Enclave").
//! HPCCG runs 300 iterations with 10 communication points over a 1 GB
//! region per node, asynchronous workflow, weak scaling; each point is
//! the mean ± stddev of 5 runs.
//!
//! Expected shape (paper): Linux-only degrades steadily with node count
//! (noise coupling at collectives) while multi-enclave stays nearly flat
//! past 2 nodes despite running the simulation *virtualized*; with
//! recurring attachments the Linux-only configuration wins at one node
//! but loses at scale.

use xemem::{TraceHandle, XememError};
use xemem_cluster::{run_cluster_traced, ClusterConfig, NodeConfig};
use xemem_sim::stats::Summary;
use xemem_workloads::insitu::AttachModel;

/// One (nodes, config) point of the figure.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Node count.
    pub nodes: u32,
    /// Configuration label.
    pub config: &'static str,
    /// Attachment model label.
    pub attach: &'static str,
    /// Mean completion time, seconds.
    pub mean_secs: f64,
    /// Standard deviation, seconds.
    pub stddev_secs: f64,
    /// Runs.
    pub runs: u32,
}

fn config_label(c: NodeConfig) -> &'static str {
    match c {
        NodeConfig::LinuxOnly => "Linux Only",
        NodeConfig::MultiEnclave => "Multi Enclave",
    }
}

/// One point spec: attachment model, node configuration and node count.
pub type PointSpec = (AttachModel, NodeConfig, u32);

/// The figure's points in output order — the unit list the parallel
/// run driver shards.
pub fn grid(node_counts: &[u32]) -> Vec<PointSpec> {
    let mut specs = Vec::new();
    for attach in [AttachModel::OneTime, AttachModel::Recurring] {
        for config in [NodeConfig::LinuxOnly, NodeConfig::MultiEnclave] {
            for &nodes in node_counts {
                specs.push((attach, config, nodes));
            }
        }
    }
    specs
}

/// Run one point: `runs` repetitions of one cluster configuration.
/// Per-repetition seeds are a pure function of run index and node
/// count, so points are independent units; the point's charges all
/// land on its own `tracer`.
pub fn run_point(
    spec: PointSpec,
    runs: u32,
    smoke: bool,
    tracer: &TraceHandle,
) -> Result<Fig9Point, XememError> {
    let (attach, config, nodes) = spec;
    let mut times = Vec::new();
    for run_idx in 0..runs {
        let mut cfg = if smoke {
            ClusterConfig::smoke(nodes, config, attach)
        } else {
            ClusterConfig::fig9(nodes, config, attach, 0)
        };
        cfg.seed = 0xF19_0000 + run_idx as u64 * 1009 + nodes as u64 * 131;
        let r = run_cluster_traced(&cfg, tracer)?;
        assert!(r.verified, "node verification failed");
        times.push(r.completion.as_secs_f64());
    }
    let s = Summary::of(&times);
    Ok(Fig9Point {
        nodes,
        config: config_label(config),
        attach: match attach {
            AttachModel::OneTime => "one-time",
            AttachModel::Recurring => "recurring",
        },
        mean_secs: s.mean,
        stddev_secs: s.stddev,
        runs,
    })
}

/// Run both panels over the given node counts.
pub fn run(node_counts: &[u32], runs: u32, smoke: bool) -> Result<Vec<Fig9Point>, XememError> {
    grid(node_counts)
        .into_iter()
        .map(|s| run_point(s, runs, smoke, &TraceHandle::disabled()))
        .collect()
}

/// Find a point for assertions.
pub fn find<'a>(points: &'a [Fig9Point], nodes: u32, config: &str, attach: &str) -> &'a Fig9Point {
    points
        .iter()
        .find(|p| p.nodes == nodes && p.config == config && p.attach == attach)
        .expect("point exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_all_points() {
        let points = run(&[1, 2], 2, true).unwrap();
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.mean_secs > 0.0);
        }
    }
}
