//! What every workload shares: the episode record, the run size, and the
//! call wrapper that counts, times and digests each public call.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use xemem::{EnclaveRef, MemTier, SimTime, System, XememError};
use xemem_pool::BufferPool;
use xemem_sim::PdesStats;

use crate::check::{error_kind, Digest, Verdict};
use crate::probe::{Op, Probe};

/// Workload scale: `full` is what the benchmark measures, `smoke` is a
/// tiny shape for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    /// Input sets with a committed golden digest; a seed selects one.
    pub fn input_sets(self) -> u64 {
        match self {
            Size::Full => 64,
            Size::Smoke => 4,
        }
    }
}

/// One episode: build a system from the seed's inputs, run the workload
/// to completion, tear down and check.
pub struct Episode {
    /// Host time from the start of the system build to the first
    /// measured call.
    pub setup: Duration,
    /// Host time of the measured phase (the PDES dispatch).
    pub measured: Duration,
    /// Public calls made in the measured phase.
    pub calls: u64,
    /// This episode's entries in the probe's step list.
    pub steps: Range<usize>,
    pub verdict: Verdict,
    pub pdes: PdesStats,
}

impl Episode {
    /// An episode that could not be set up.
    pub fn failed(why: String) -> Episode {
        Episode {
            setup: Duration::ZERO,
            measured: Duration::ZERO,
            calls: 0,
            steps: 0..0,
            verdict: Verdict {
                digest: 0,
                violations: vec![why],
                facts: Vec::new(),
                errors: BTreeMap::new(),
            },
            pdes: PdesStats::default(),
        }
    }
}

/// Host stopwatch for an episode's two phases.
pub struct Phases {
    start: Instant,
    setup: Option<Duration>,
}

impl Phases {
    pub fn start() -> Phases {
        Phases {
            start: Instant::now(),
            setup: None,
        }
    }

    /// Mark the end of set-up; the measured phase begins.
    pub fn measure(&mut self) {
        self.setup = Some(self.start.elapsed());
        self.start = Instant::now();
    }

    /// `(setup, measured)` host durations.
    pub fn finish(self) -> (Duration, Duration) {
        (self.setup.unwrap_or_default(), self.start.elapsed())
    }
}

/// The system plus the episode's probe, digest and oracle log; workload
/// contexts embed one and make every public call through [`Ops::op`].
pub struct Ops {
    pub sys: System,
    pub probe: Probe,
    pub digest: Digest,
    pub violations: Vec<String>,
    /// Typed errors returned, by kind.
    pub errors: BTreeMap<String, u64>,
}

impl Ops {
    pub fn new(sys: System, probe: Probe) -> Ops {
        Ops {
            sys,
            probe,
            digest: Digest::default(),
            violations: Vec::new(),
            errors: BTreeMap::new(),
        }
    }

    /// Make one clock-based call: count, time (when tracing) and digest
    /// its outcome — the virtual clock after it, or its error kind.
    pub fn op<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut System) -> Result<T, XememError>,
    ) -> Result<T, XememError> {
        let sys = &mut self.sys;
        let r = self.probe.call(op, || f(sys));
        let now = self.sys.clock().now();
        self.digest.outcome(&r, |_| now);
        self.tally(&r);
        r
    }

    fn tally<T>(&mut self, r: &Result<T, XememError>) {
        if let Err(e) = r {
            *self.errors.entry(error_kind(e)).or_default() += 1;
        }
    }

    /// Make one call on an explicit timeline: count, time (when tracing)
    /// and digest its outcome — the returned completion time, or its
    /// error kind.
    pub fn op_at<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut System) -> Result<(T, SimTime), XememError>,
    ) -> Result<(T, SimTime), XememError> {
        let sys = &mut self.sys;
        let r = self.probe.call(op, || f(sys));
        self.digest.outcome(&r, |(_, end)| *end);
        self.tally(&r);
        r
    }

    /// Sweep `pool` for crashed consumers at the clock, counted, timed and
    /// digested like a call; returns the references reclaimed.
    pub fn sweep(&mut self, pool: &mut BufferPool) -> u64 {
        let now = self.sys.clock().now();
        let sys = &mut self.sys;
        let (n, end) = self
            .probe
            .batch(Op::PoolSweep, 1, || (pool.sweep_at(sys, now), 0));
        self.digest.u64(n);
        self.sys.clock().advance_to(end);
        n
    }

    /// Record an oracle failure.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Oracle: every enclave's DRAM and tier allocators are back at
    /// their post-build free counts, and no frame loan is open.
    pub fn check_frames(&mut self, baseline: &[FrameBaseline]) {
        for b in baseline {
            if !self.sys.enclave_alive(b.enclave) {
                continue;
            }
            let now = self.sys.free_frames_of(b.enclave);
            if now != Some(b.dram) {
                self.violation(format!(
                    "enclave {} leaked frames: {now:?} free vs {} at build",
                    b.enclave.0, b.dram
                ));
            }
            for &(tier, free) in &b.tiers {
                let now = self.sys.tier_free_frames(b.enclave, tier);
                if now != Some(free) {
                    self.violation(format!(
                        "enclave {} leaked {tier} frames: {now:?} free vs {free} at build",
                        b.enclave.0
                    ));
                }
            }
        }
        if self.sys.outstanding_loans() != 0 {
            let n = self.sys.outstanding_loans();
            self.violation(format!("{n} frame loans still open"));
        }
    }
}

/// Free-frame counts of one enclave right after the build.
pub struct FrameBaseline {
    pub enclave: EnclaveRef,
    pub dram: u64,
    pub tiers: Vec<(MemTier, u64)>,
}

/// Snapshot every live enclave's allocators.
pub fn frame_baseline(sys: &System) -> Vec<FrameBaseline> {
    (0..sys.enclave_count())
        .map(EnclaveRef)
        .filter(|&e| sys.enclave_alive(e))
        .filter_map(|e| {
            Some(FrameBaseline {
                enclave: e,
                dram: sys.free_frames_of(e)?,
                tiers: MemTier::ALL
                    .iter()
                    .filter_map(|&t| Some((t, sys.tier_free_frames(e, t)?)))
                    .collect(),
            })
        })
        .collect()
}

/// Where a region of `len` bytes carries its payload page: a page-aligned
/// offset picked by `pick` (a multiple of 4 KiB), past the header page.
pub fn payload_offset(pick: u64, len: u64) -> u64 {
    const PAGE: u64 = 4096;
    PAGE + pick % (len - PAGE)
}

/// A fixed multiset of values in a seed-chosen order: every seed does the
/// same total work, so seeds differ in order and placement, not in size.
pub fn shuffled<T: Copy>(values: &[T], rng: &mut xemem_sim::SimRng) -> Vec<T> {
    let mut v = values.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.uniform_u64(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}
