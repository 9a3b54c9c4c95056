//! Deterministic parallel execution of independent runs.
//!
//! Every figure in the paper is a sweep of *independent* virtual-time
//! runs (sizes, core counts, node counts, ablation variants) and the
//! fault proptests execute hundreds of independent seeded schedules.
//! [`RunDriver`] shards such a plan across host worker threads while
//! keeping the result of each run — and therefore the aggregate —
//! bit-identical to a serial execution:
//!
//! * **Run isolation.** Each run builds its own `System` (own virtual
//!   clock, own frame allocators, own name server). Nothing is shared
//!   between runs except the read-only closure environment, so host
//!   scheduling cannot leak between virtual timelines.
//! * **Split RNG streams.** A run's random stream is derived *statelessly*
//!   from the plan's root seed and the run index ([`split_seed`]), never
//!   from which worker picked the run up or in what order. `-j1` and
//!   `-jN` therefore feed every run identical entropy.
//! * **Order-independent aggregation.** Workers tag each result with its
//!   run index; [`RunDriver::execute`] sorts the tagged results back into
//!   plan order before returning, so the output `Vec` is independent of
//!   completion order.
//!
//! Scheduling is a self-stealing worklist: a shared atomic cursor over
//! the run indices that each idle worker claims from. This gives the
//! load balancing of work stealing (a worker that finishes a short run
//! immediately steals the next undone index) without per-worker deques,
//! and — crucially — without any influence on run *content*.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::SimRng;

/// Derive the seed of run `index` from the plan's `root` seed.
///
/// This is the splitmix64 output function over `root + index`, the same
/// mixer `SimRng::fork` uses: adjacent indices land on decorrelated
/// `StdRng` seeds, and the derivation depends only on `(root, index)` —
/// never on host scheduling.
pub fn split_seed(root: u64, index: u64) -> u64 {
    mix64(root.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The splitmix64 output mixer: a stateless bijective 64-bit hash.
///
/// Shared by [`split_seed`], [`SimRng::fork`], the PDES lane assignment
/// ([`crate::pdes::lane_of`]) and the name service's hash ring, so every
/// derivation is documented by one function and depends only on its
/// inputs.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host parallelism available to a driver, with a serial fallback when
/// the platform cannot report it.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A plan for a batch of independent runs: how many, how many host
/// workers, and the root seed child streams split from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    runs: usize,
    jobs: usize,
    seed: u64,
}

impl RunPlan {
    /// A plan for `runs` independent runs, defaulting to the host's
    /// available parallelism and a root seed of 0.
    pub fn new(runs: usize) -> Self {
        RunPlan {
            runs,
            jobs: host_parallelism(),
            seed: 0,
        }
    }

    /// Set the worker count. `0` means "use available parallelism"
    /// (the `--jobs 0` convention of make/cargo is not supported; bench
    /// bins pass the parsed flag through here).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { host_parallelism() } else { jobs };
        self
    }

    /// Set the root seed all run streams split from.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of runs in the plan.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Effective worker count (never more workers than runs).
    pub fn jobs(&self) -> usize {
        self.jobs.min(self.runs).max(1)
    }

    /// Root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Per-run context handed to the run closure: the run's index within
/// the plan and its scheduling-independent seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// Index of this run within the plan, `0..plan.runs()`.
    pub index: usize,
    /// Seed split from the plan's root seed for this index.
    pub seed: u64,
}

impl RunCtx {
    /// The run's deterministic random stream. Two calls return equal
    /// streams; the stream depends only on `(root seed, index)`.
    pub fn rng(&self) -> SimRng {
        SimRng::seed_from_u64(self.seed)
    }
}

/// Executes a [`RunPlan`] over a closure, serially or across a worker
/// pool, with deterministic plan-order aggregation either way.
#[derive(Debug, Clone, Copy)]
pub struct RunDriver {
    plan: RunPlan,
}

impl RunDriver {
    /// Driver for the given plan.
    pub fn new(plan: RunPlan) -> Self {
        RunDriver { plan }
    }

    /// The driver's plan.
    pub fn plan(&self) -> &RunPlan {
        &self.plan
    }

    /// Execute every run in the plan and return the results in plan
    /// order (index 0 first), regardless of completion order.
    ///
    /// With one effective worker the runs execute inline on the calling
    /// thread — this is the serial reference the parallel path must
    /// match bit for bit. With `N > 1` workers, runs are claimed from a
    /// shared atomic worklist; a panicking run propagates the panic to
    /// the caller once the scope joins.
    pub fn execute<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RunCtx) -> T + Sync,
    {
        let runs = self.plan.runs();
        if runs == 0 {
            return Vec::new();
        }
        let seed = self.plan.seed();
        let ctx = |index: usize| RunCtx {
            index,
            seed: split_seed(seed, index as u64),
        };

        let jobs = self.plan.jobs();
        if jobs <= 1 {
            return (0..runs).map(|i| f(ctx(i))).collect();
        }

        let cursor = AtomicUsize::new(0);
        let f = &f;
        let cursor = &cursor;
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= runs {
                                break;
                            }
                            local.push((i, f(ctx(i))));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("run worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(tagged.len(), runs);
        tagged.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_is_stable_and_decorrelated() {
        // Stateless: same inputs, same output.
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        // Adjacent indices do not produce adjacent (or equal) seeds.
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        assert_ne!(a, b);
        assert!(a.abs_diff(b) > 1 << 20);
        // Distinct roots diverge at the same index.
        assert_ne!(split_seed(1, 3), split_seed(2, 3));
    }

    #[test]
    fn ctx_rng_matches_direct_split_stream() {
        let ctx = RunCtx {
            index: 5,
            seed: split_seed(99, 5),
        };
        let mut a = ctx.rng();
        let mut b = SimRng::split_stream(99, 5);
        for _ in 0..64 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    /// A run whose result depends on its entropy and on host-visible
    /// work (a little hashing loop) — enough to surface any
    /// scheduling-dependent behaviour.
    fn workload(ctx: RunCtx) -> (usize, u64, u64) {
        let mut rng = ctx.rng();
        let mut acc = 0u64;
        let iters = 100 + (ctx.index % 7) * 50;
        for _ in 0..iters {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(rng.uniform_u64(0, 1 << 32));
        }
        (ctx.index, ctx.seed, acc)
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let plan = RunPlan::new(64).with_seed(0xD15E_A5E5);
        let serial = RunDriver::new(plan.with_jobs(1)).execute(workload);
        for jobs in [2, 4, 8] {
            let parallel = RunDriver::new(plan.with_jobs(jobs)).execute(workload);
            assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn results_come_back_in_plan_order() {
        let plan = RunPlan::new(33).with_jobs(4);
        let out = RunDriver::new(plan).execute(|ctx| ctx.index);
        assert_eq!(out, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let plan = RunPlan::new(8).with_jobs(0);
        assert!(plan.jobs() >= 1);
        let out = RunDriver::new(plan).execute(|ctx| ctx.seed);
        let reference = RunDriver::new(plan.with_jobs(1)).execute(|ctx| ctx.seed);
        assert_eq!(out, reference);
    }

    #[test]
    fn empty_plan_yields_empty_results() {
        let plan = RunPlan::new(0).with_jobs(4);
        let out: Vec<u64> = RunDriver::new(plan).execute(|ctx| ctx.seed);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_runs_is_fine() {
        let plan = RunPlan::new(3).with_jobs(16);
        assert_eq!(plan.jobs(), 3);
        let out = RunDriver::new(plan).execute(|ctx| ctx.index);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
