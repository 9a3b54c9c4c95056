//! # xemem-bench
//!
//! The experiment harness: one module (and one binary) per figure/table
//! of the paper's evaluation, plus the ablation studies DESIGN.md calls
//! out and the extension suites. Each module exposes a `run(...)`
//! function returning structured rows so the binaries stay thin and
//! integration tests can execute the experiments in smoke mode.
//!
//! | module | regenerates |
//! |---|---|
//! | [`fig5`] | Fig. 5 — attach / attach+read throughput vs RDMA verbs |
//! | [`fig6`] | Fig. 6 — throughput vs number of concurrent enclaves |
//! | [`table2`] | Table 2 — VM attach throughput, with/without RB-tree inserts |
//! | [`fig7`] | Fig. 7 — Kitten noise profile under attachment service |
//! | [`fig8`] | Fig. 8 — single-node in situ benchmark (Table 3 configs) |
//! | [`fig9`] | Fig. 9 — multi-node weak scaling |
//! | [`ablations`] | memory-map structure, IPI handler placement, name-server placement, NUMA placement, huge-page mapping |
//! | [`nameserver_scaling`] | lookup latency vs shard count vs outage rate |
//! | [`nameserver_chaos`] | 10,000-enclave shard-outage and failover suite |
//! | [`pool_throughput`] | buffer-pool ops per virtual second vs consumer enclaves |
//! | [`tier_composed`] | tier migration vs static placement, attach bandwidth vs tier |
//! | [`pdes_churn`] | lane-parallel churn scenario timed by `wallclock` |
//! | [`wallclock`] | host-time harness and `--check` gate table behind `BENCH_wallclock.json` |
//! | [`driver`] | parallel sweeps with per-run tracers and merged exports |

pub mod ablations;
pub mod driver;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod nameserver_chaos;
pub mod nameserver_scaling;
pub mod pdes_churn;
pub mod pool_throughput;
pub mod table2;
pub mod tier_composed;
pub mod wallclock;

use std::fmt::Write as _;

/// Minimal CLI options shared by the figure binaries.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Drastically reduce sizes/iterations (used by tests).
    pub smoke: bool,
    /// Override the number of repetitions.
    pub runs: Option<u32>,
    /// Enable the tracing/metrics layer for this run.
    pub trace: bool,
    /// Write a chrome://tracing JSON export here (implies `trace`); a
    /// folded-stack export lands next to it at `<path>.folded`.
    pub trace_out: Option<String>,
    /// Write an `xemem-obs` causal report here (implies `trace`):
    /// every span with its parent link and timeline, every causal
    /// edge, and the full metrics registry, merged across runs in run
    /// order — the input format of the `obs` analyzer.
    pub obs_report: Option<String>,
    /// Host worker threads for independent runs (`None` = available
    /// parallelism, `Some(1)` = serial). Results are bit-identical
    /// either way; see [`driver`].
    pub jobs: Option<usize>,
    /// PDES event lanes *within* one simulation (`None` = 1, the serial
    /// reference). Results are bit-identical at any lane count; see
    /// `xemem_sim::pdes`.
    pub lanes: Option<usize>,
}

impl Args {
    /// Parse from `std::env::args`. Recognized: `--smoke`, `--runs N`,
    /// `--trace`, `--trace-out PATH`, `--obs-report PATH`, `--jobs N`,
    /// `--lanes N`.
    pub fn parse() -> Args {
        let mut out = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--runs" => {
                    out.runs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .or_else(|| panic!("--runs requires an integer"));
                }
                "--trace" => out.trace = true,
                "--trace-out" => {
                    out.trace_out = Some(it.next().expect("--trace-out requires a path"));
                    out.trace = true;
                }
                "--obs-report" => {
                    out.obs_report = Some(it.next().expect("--obs-report requires a path"));
                    out.trace = true;
                }
                "--jobs" => {
                    out.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .or_else(|| panic!("--jobs requires an integer >= 1"));
                }
                "--lanes" => {
                    out.lanes = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .or_else(|| panic!("--lanes requires an integer >= 1"));
                }
                other => panic!(
                    "unknown argument: {other} (expected --smoke, --runs N, --trace, --trace-out PATH, --obs-report PATH, --jobs N, --lanes N)"
                ),
            }
        }
        out
    }

    /// Effective worker count: `--jobs N`, defaulting to the host's
    /// available parallelism.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(xemem_sim::host_parallelism)
    }

    /// Effective intra-run lane count: `--lanes N`, defaulting to 1
    /// (the serial reference schedule — which every other lane count
    /// replays bit for bit).
    pub fn effective_lanes(&self) -> usize {
        self.lanes.unwrap_or(1).max(1)
    }
}

/// Render an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |out: &mut String, cells: &[String]| {
        let rendered: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", rendered.join("  "));
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Format a mean ± stddev pair.
pub fn pm(mean: f64, stddev: f64) -> String {
    format!("{mean:.2} ± {stddev:.2}")
}

/// Sizes swept by Figs. 5–6 (bytes), paper axis: 128 MB … 1 GB.
pub const SWEEP_SIZES: [u64; 4] = [128 << 20, 256 << 20, 512 << 20, 1 << 30];

/// Smoke-mode sizes.
pub const SMOKE_SIZES: [u64; 2] = [4 << 20, 8 << 20];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            "t",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("== t =="));
        assert!(s.contains("333"));
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(12.3456, 0.789), "12.35 ± 0.79");
    }
}
