//! Bench-side layer over the sim run driver: parallel sweeps with
//! per-run trace rings and deterministic merged exports.
//!
//! [`ParSession`] is what the figure binaries use. Each call to
//! [`ParSession::run`] executes `n` independent units (sweep points,
//! grid cells, table rows) through [`xemem_sim::RunDriver`]:
//!
//! * every unit gets its **own** [`TraceHandle`] (its own rings and
//!   metrics registry) created *before* execution, indexed by unit —
//!   never by which worker ran it;
//! * results come back in plan order, so tables are byte-identical at
//!   `--jobs 1` and `--jobs N`;
//! * errors are sequenced deterministically: the error of the
//!   lowest-indexed failing unit is returned, regardless of which
//!   worker hit an error first;
//! * enabled per-run tracers accumulate in the session keyed by a
//!   monotonically assigned run id, and [`ParSession::finish`] merges
//!   them with the run-id-keyed exporters in `xemem_trace`, audits
//!   every run, and prints the aggregate metrics summary.

use xemem::trace_layer::{self, MetricsSnapshot};
use xemem::{TraceHandle, XememError};
use xemem_sim::{RunDriver, RunPlan};

use crate::Args;

/// Per-run ring sizing `(slots per ring, enclave rings)`, from the
/// exports the session will write; a run's tracer metrics and
/// conservation audit are exact at any ring capacity.
///
/// * An obs report: the causal analyzer gates on zero lost records, so
///   each run gets enough per-enclave rings that the chaos smoke
///   geometry never spills into (and overwrites) the shared overflow
///   ring, and enough slots per ring that its busiest enclave never
///   wraps.
/// * A chrome trace: sweeps run many units, so each unit's rings are
///   kept smaller than the single-run default.
/// * Neither: no bench code reads spans in-run, so runs keep metrics
///   only.
fn ring_capacity(args: &Args) -> (usize, usize) {
    if args.obs_report.is_some() {
        (1 << 14, 64)
    } else if args.trace_out.is_some() {
        (1 << 12, 8)
    } else {
        (0, 0)
    }
}

/// A parallel bench session: worker count, tracing mode, and the
/// per-run tracers accumulated so far.
pub struct ParSession {
    jobs: usize,
    tracing: bool,
    ring_capacity: (usize, usize),
    runs: Vec<(u64, TraceHandle)>,
    next_run_id: u64,
}

impl ParSession {
    /// Session configured from parsed CLI args.
    pub fn new(args: &Args) -> ParSession {
        let mut s = ParSession::with(args.effective_jobs(), args.trace);
        s.ring_capacity = ring_capacity(args);
        s
    }

    /// Session configured from parsed CLI args but always traced —
    /// for suites whose contract includes the conservation audit.
    pub fn always_traced(args: &Args) -> ParSession {
        let mut s = ParSession::with(args.effective_jobs(), true);
        s.ring_capacity = ring_capacity(args);
        s
    }

    /// Session with an explicit worker count and tracing mode; traced
    /// runs keep metrics only.
    pub fn with(jobs: usize, tracing: bool) -> ParSession {
        ParSession {
            jobs: jobs.max(1),
            tracing,
            ring_capacity: (0, 0),
            runs: Vec::new(),
            next_run_id: 0,
        }
    }

    /// Per-run tracers accumulated so far, keyed by run id.
    pub fn traced_runs(&self) -> &[(u64, TraceHandle)] {
        &self.runs
    }

    /// Execute `n` independent units. `f` receives the unit index and
    /// the unit's own tracer (disabled when the session is untraced)
    /// and must not touch state shared with other units. Returns unit
    /// results in index order; on failure, the error of the
    /// lowest-indexed failing unit.
    pub fn run<T, F>(&mut self, n: usize, f: F) -> Result<Vec<T>, XememError>
    where
        T: Send,
        F: Fn(usize, &TraceHandle) -> Result<T, XememError> + Sync,
    {
        let (slots, rings) = self.ring_capacity;
        let tracers: Vec<TraceHandle> = (0..n)
            .map(|_| {
                if self.tracing {
                    TraceHandle::with_capacity(slots, rings)
                } else {
                    TraceHandle::disabled()
                }
            })
            .collect();
        let driver = RunDriver::new(RunPlan::new(n).with_jobs(self.jobs));
        let results = driver.execute(|ctx| f(ctx.index, &tracers[ctx.index]));
        if self.tracing {
            for (i, tracer) in tracers.into_iter().enumerate() {
                self.runs.push((self.next_run_id + i as u64, tracer));
            }
        }
        self.next_run_id += n as u64;
        results.into_iter().collect()
    }

    /// Aggregate metrics across all traced runs (zero when untraced).
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::zero();
        for (_, tracer) in &self.runs {
            if let Some(snap) = tracer.metrics_snapshot() {
                agg.absorb(&snap);
            }
        }
        agg
    }

    /// End-of-session epilogue: write the merged chrome://tracing
    /// JSON (and folded stacks alongside) when `--trace-out` was given,
    /// the merged obs report when `--obs-report` was given, audit
    /// conservation on every run's tracer, and print the merged
    /// metrics summary. No-op when the session is untraced.
    pub fn finish(&self, args: &Args) {
        if !self.tracing {
            return;
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, trace_layer::merge_chrome_trace_json(&self.runs))
                .expect("write merged chrome trace JSON");
            let folded = format!("{path}.folded");
            std::fs::write(&folded, trace_layer::merge_folded_stacks(&self.runs))
                .expect("write merged folded stacks");
            eprintln!(
                "trace: wrote {path} (chrome://tracing, {} runs) and {folded} (folded stacks)",
                self.runs.len()
            );
        }
        if let Some(path) = &args.obs_report {
            std::fs::write(path, trace_layer::merge_obs_report(&self.runs))
                .expect("write obs report");
            eprintln!("trace: wrote {path} (obs report, {} runs)", self.runs.len());
        }
        let mut attributed = 0u64;
        for (id, tracer) in &self.runs {
            match tracer.audit() {
                Ok(sums) => attributed += sums.total_attributed_ns(),
                Err(e) => panic!("trace: conservation audit FAILED for run {id}: {e}"),
            }
        }
        eprintln!(
            "trace: conservation audit OK over {} runs ({} attributed ns)",
            self.runs.len(),
            attributed
        );
        eprint!("{}", self.merged_metrics().render());
    }
}

/// Convenience for untraced grid sweeps outside a session: run `n`
/// units at the given worker count and sequence the errors
/// deterministically.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, XememError>
where
    T: Send,
    F: Fn(usize) -> Result<T, XememError> + Sync,
{
    let driver = RunDriver::new(RunPlan::new(n).with_jobs(jobs));
    driver.execute(|ctx| f(ctx.index)).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_sequence_by_unit_index() {
        let mut session = ParSession::with(4, false);
        let err = session
            .run(16, |i, _| {
                if i % 5 == 3 {
                    Err(XememError::Topology(format!("unit {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(format!("{err:?}").contains("unit 3"), "{err:?}");
    }

    #[test]
    fn traced_session_accumulates_per_run_handles() {
        let mut session = ParSession::with(2, true);
        let out = session
            .run(3, |i, tracer| {
                assert!(tracer.is_enabled());
                Ok(i)
            })
            .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
        let _ = session.run(2, |i, _| Ok::<_, XememError>(i)).unwrap();
        let ids: Vec<u64> = session.traced_runs().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn untraced_session_hands_out_disabled_tracers() {
        let mut session = ParSession::with(2, false);
        session
            .run(2, |_, tracer| {
                assert!(!tracer.is_enabled());
                Ok(())
            })
            .unwrap();
        assert!(session.traced_runs().is_empty());
    }
}
