//! Property test: the windowed PDES engine is *observationally
//! equivalent* to the serial worklist it replaced, under arbitrary
//! fault schedules.
//!
//! Each of the 256 cases derives a random [`FaultPlan`] from the seed
//! (enclave crashes, process kills, shard-scoped name-server outages,
//! lossy-link windows) and drives a chaos-style workload — consumers
//! bundling search/get/release rounds at barriers and touching
//! enclave-local scratch buffers in the lane phase, plus a churn actor
//! removing and re-exporting named segments — through
//! [`xemem_sim::pdes::run_lanes`] at every combination of lanes
//! {1, 2, 5, 8} × workers {1, 8}. The `lanes=1, workers=1` run is the
//! serial reference; every other configuration must reproduce it
//! exactly:
//!
//! * equal results — op tallies, live/removed key books, final clock,
//!   per-enclave free-frame counts;
//! * bit-identical metrics snapshots — every counter and histogram the
//!   per-run tracer collected;
//! * equal conservation sums — the audited leaf/root span totals
//!   (`audit()` additionally asserts leaves tile their roots exactly).
//!
//! Lane and worker counts are host resources and simulation *shape*;
//! the theorem under test is that neither is simulation-*visible*.

use proptest::prelude::*;
use xemem::trace_layer::{ConservationSums, Ctx, MetricsSnapshot, SpanKind, Timeline};
use xemem::{
    EnclaveRef, FaultPlan, LanePart, ProcessRef, Segid, System, SystemBuilder, TraceHandle,
    VirtAddr, XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::{SimRng, SimTime};

const MIB: u64 = 1 << 20;
/// Virtual-time span of each random fault schedule.
const HORIZON_NS: u64 = 1_000_000; // 1 ms
/// Barrier rounds per actor; the grid stride (HORIZON / ROUNDS) is far
/// above the PDES lookahead, so bundled rounds respect the window
/// contract.
const ROUNDS: u64 = 8;
/// Name-service shards (replicated ×2, hosted on slots 0..4).
const SHARDS: usize = 2;
/// Workload enclaves (slots 4..8, past the replica set).
const WORKERS: usize = 4;

/// Everything observable about one run. Two runs of the same seed at
/// any `(lanes, workers)` must produce equal outcomes.
#[derive(Debug, PartialEq)]
struct Outcome {
    ok_ops: u64,
    failed_ops: u64,
    stale_reads: u64,
    live_keys: Vec<(Segid, String)>,
    removed_keys: Vec<(String, Segid, u64)>,
    clock_ns: u64,
    /// Per-slot free frames (None for crashed enclaves).
    free_frames: Vec<Option<u64>>,
    /// The tracer's full metrics state: counters, op counts, latency
    /// histograms, per-shard columns.
    metrics: Option<MetricsSnapshot>,
    /// Audited conservation sums (leaf == root enforced by `audit()`).
    sums: ConservationSums,
}

/// Shared state the actors coordinate through at barriers.
struct Shared {
    sys: System,
    tracer: TraceHandle,
    live: Vec<(ProcessRef, Segid, String)>,
    /// Removed names with their revocation-completion time: a probe is
    /// stale only when its virtual time is at or after that completion
    /// (earlier probes read pre-removal history, which is legal under
    /// out-of-order chain execution).
    removed: Vec<(String, Segid, SimTime)>,
    ok_ops: u64,
    failed_ops: u64,
    stale_reads: u64,
    max_end: SimTime,
}

impl Shared {
    fn framed_at<T>(
        &mut self,
        kind: SpanKind,
        ctx: Ctx,
        at: SimTime,
        f: impl FnOnce(&mut System, SimTime) -> Result<(T, SimTime), XememError>,
    ) -> Option<(T, SimTime)> {
        self.tracer.begin_op(kind, at, ctx, Timeline::Detached);
        match f(&mut self.sys, at) {
            Ok((v, end)) => {
                self.tracer.commit_op(end);
                self.ok_ops += 1;
                self.max_end = self.max_end.max(end);
                Some((v, end))
            }
            Err(_) => {
                self.tracer.abort_op();
                self.failed_ops += 1;
                None
            }
        }
    }
}

impl LaneShared for Shared {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.sys, start);
    }
}

fn grid_at(t0_ns: u64, round: u64) -> SimTime {
    SimTime::from_nanos(t0_ns + round * (HORIZON_NS / ROUNDS))
}

/// A consumer bundles a small lookup round at each barrier and touches
/// its scratch buffer in the lane phase; the churn actor (`order` ==
/// WORKERS, merged after every consumer) withdraws one live key and
/// exports a fresh one per round.
struct Actor {
    order: u64,
    /// `None` only for the churn actor under schedules that killed
    /// every spawn before the grid started.
    p: Option<ProcessRef>,
    scratch: Option<VirtAddr>,
    /// `Some` makes this the churn actor, owning the schedule RNG.
    churn: Option<(SimRng, Vec<ProcessRef>, u64)>,
    round: u64,
    t0_ns: u64,
    local_ok: u64,
    local_failed: u64,
    local_max_end: SimTime,
}

impl Actor {
    fn consumer_round(&mut self, at: SimTime, ctx: &mut Shared) {
        let p = self.p.expect("consumers always hold a process");
        let pctx = Ctx::proc(p.enclave.0, p.pid.0);
        let mut t = at;
        for k in 0..4usize {
            if ctx.live.is_empty() {
                break;
            }
            let idx = (self.order as usize * 4 + k + self.round as usize) % ctx.live.len();
            let (_, segid, name) = &ctx.live[idx];
            let (segid, name) = (*segid, name.clone());
            if let Some((_, end)) = ctx.framed_at(SpanKind::Search, pctx, t, |sys, at| {
                sys.search_at(p, &name, at)
            }) {
                t = end;
            }
            if k == 0 {
                let sctx = Ctx::seg(p.enclave.0, p.pid.0, segid.0);
                if let Some((apid, end)) =
                    ctx.framed_at(SpanKind::Get, sctx, t, |sys, at| sys.get_at(p, segid, at))
                {
                    t = end;
                    if let Some(((), end)) = ctx.framed_at(SpanKind::Release, pctx, t, |sys, at| {
                        sys.release_at(p, apid, at).map(|e| ((), e))
                    }) {
                        t = end;
                    }
                }
            }
        }
        // Probe a removed name; count (don't assert) time-qualified
        // staleness — the oracle assertions live in the chaos suite,
        // here the counter only has to be configuration-invariant.
        if let Some((gone_name, gone_segid, gone_at)) = ctx
            .removed
            .get(self.order as usize % ctx.removed.len().max(1))
            .cloned()
        {
            let probe_at = t;
            if let Some((found, _)) = ctx.framed_at(SpanKind::Search, pctx, t, |sys, at| {
                sys.search_at(p, &gone_name, at)
            }) {
                if found == gone_segid && probe_at >= gone_at {
                    ctx.stale_reads += 1;
                }
            }
        }
    }

    fn churn_round(&mut self, at: SimTime, ctx: &mut Shared) {
        let (rng, exporters, gen) = self.churn.as_mut().expect("churn actor");
        let mut t = at;
        if ctx.live.len() > 2 {
            let idx = rng.uniform_u64(0, ctx.live.len() as u64) as usize;
            let (owner, segid, name) = ctx.live.swap_remove(idx);
            let sctx = Ctx::seg(owner.enclave.0, owner.pid.0, segid.0);
            if let Some(((), end)) = ctx.framed_at(SpanKind::Remove, sctx, t, |sys, at| {
                sys.remove_at(owner, segid, at).map(|e| ((), e))
            }) {
                t = end;
                ctx.removed.push((name, segid, end));
            }
        }
        let w = rng.uniform_u64(0, exporters.len().max(1) as u64) as usize;
        if let Some(&exporter) = exporters.get(w) {
            match ctx.sys.alloc_buffer_at(exporter, 64 * 1024, t) {
                Ok((buf, end)) => {
                    ctx.ok_ops += 1;
                    t = end;
                    let name = format!("eq:{w}:{gen}");
                    *gen += 1;
                    let pctx = Ctx::proc(exporter.enclave.0, exporter.pid.0);
                    if let Some((segid, end)) = ctx.framed_at(SpanKind::Make, pctx, t, |sys, at| {
                        sys.make_at(exporter, buf, 64 * 1024, Some(&name), at)
                    }) {
                        ctx.max_end = ctx.max_end.max(end);
                        ctx.live.push((exporter, segid, name));
                    }
                }
                Err(_) => ctx.failed_ops += 1,
            }
        }
    }
}

impl PdesActor<Shared> for Actor {
    fn lane_key(&self) -> u64 {
        self.p.map_or(0, |p| p.enclave.0 as u64)
    }

    fn order_key(&self) -> u64 {
        self.order
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(grid_at(self.t0_ns, 0))
    }

    fn has_local(&self) -> bool {
        self.scratch.is_some()
    }

    fn local(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        let (Some(p), Some(va)) = (self.p, self.scratch) else {
            return;
        };
        let pattern = [(self.round as u8) ^ 0xA5; 32];
        match part.write_at(p, va, &pattern, now) {
            Ok(end) => {
                self.local_ok += 1;
                let mut back = [0u8; 32];
                match part.read_at(p, va, &mut back, end) {
                    Ok(end) => {
                        self.local_ok += 1;
                        self.local_max_end = self.local_max_end.max(end);
                    }
                    Err(_) => self.local_failed += 1,
                }
            }
            Err(_) => self.local_failed += 1,
        }
    }

    fn barrier(&mut self, now: SimTime, shared: &mut Shared) -> Option<SimTime> {
        shared.ok_ops += std::mem::take(&mut self.local_ok);
        shared.failed_ops += std::mem::take(&mut self.local_failed);
        shared.max_end = shared.max_end.max(self.local_max_end);
        if self.churn.is_some() {
            self.churn_round(now, shared);
        } else {
            self.consumer_round(now, shared);
        }
        self.round += 1;
        (self.round < ROUNDS).then(|| grid_at(self.t0_ns, self.round))
    }
}

/// Build the topology, derive the fault schedule from `seed`, run the
/// workload under `(lanes, workers)`, and collect the outcome.
fn run_config(seed: u64, lanes: usize, workers: usize) -> Outcome {
    let mut rng = SimRng::seed_from_u64(seed);
    let slots = 2 * SHARDS + WORKERS;
    let plan = FaultPlan::random_sharded(
        &mut rng,
        SimTime::from_nanos(HORIZON_NS),
        slots,
        3,
        8,
        SHARDS,
    );
    let tracer = TraceHandle::enabled();
    let mut b = SystemBuilder::new().linux_management("linux", 4, 128 * MIB);
    for i in 0..slots - 1 {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 32 * MIB);
    }
    let mut sys = b
        .name_service_shards(SHARDS, 2)
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()
        .unwrap();

    let mut ok_ops = 0u64;
    let mut failed_ops = 0u64;
    macro_rules! attempt {
        ($r:expr) => {
            match $r {
                Ok(v) => {
                    ok_ops += 1;
                    Some(v)
                }
                Err(_) => {
                    failed_ops += 1;
                    None
                }
            }
        };
    }

    // One exporter + one consumer per workload enclave, plus initial
    // exports so the lookup storm has a key space from round 0.
    let first_free = 2 * SHARDS;
    let mut exporters: Vec<ProcessRef> = Vec::new();
    let mut consumers: Vec<ProcessRef> = Vec::new();
    for w in 0..WORKERS {
        let e = EnclaveRef(first_free + w);
        if let Some(p) = attempt!(sys.spawn_process(e, 2 * MIB)) {
            exporters.push(p);
        }
        if let Some(p) = attempt!(sys.spawn_process(e, MIB)) {
            consumers.push(p);
        }
    }
    let mut gen = 0u64;
    let mut live: Vec<(ProcessRef, Segid, String)> = Vec::new();
    for (w, &exporter) in exporters.iter().enumerate() {
        for _ in 0..2 {
            if let Some(buf) = attempt!(sys.alloc_buffer(exporter, 64 * 1024)) {
                let name = format!("eq:{w}:{gen}");
                gen += 1;
                if let Some(segid) = attempt!(sys.xpmem_make(exporter, buf, 64 * 1024, Some(&name)))
                {
                    live.push((exporter, segid, name));
                }
            }
        }
    }

    let t0_ns = sys.clock().now().as_nanos();
    let mut actors: Vec<Actor> = Vec::new();
    for (c, &consumer) in consumers.iter().enumerate() {
        let scratch = attempt!(sys.alloc_buffer(consumer, 4096));
        actors.push(Actor {
            order: c as u64,
            p: Some(consumer),
            scratch,
            churn: None,
            round: 0,
            t0_ns,
            local_ok: 0,
            local_failed: 0,
            local_max_end: SimTime::ZERO,
        });
    }
    actors.push(Actor {
        order: WORKERS as u64,
        p: exporters.first().or(consumers.first()).copied(),
        scratch: None,
        churn: Some((rng, exporters.clone(), gen)),
        round: 0,
        t0_ns,
        local_ok: 0,
        local_failed: 0,
        local_max_end: SimTime::ZERO,
    });

    let lookahead = sys.pdes_lookahead();
    let mut shared = Shared {
        sys,
        tracer: tracer.clone(),
        live,
        removed: Vec::new(),
        ok_ops,
        failed_ops,
        stale_reads: 0,
        max_end: SimTime::from_nanos(t0_ns),
    };
    let cfg = PdesConfig::new(lanes, lookahead).with_workers(workers);
    run_lanes(&cfg, &mut actors, &mut shared);
    // Reassign (not shadow) the bindings `attempt!` closed over: the
    // macro body's identifiers resolve at its definition site.
    let Shared {
        sys: sys_back,
        live,
        removed,
        ok_ops: ok_back,
        failed_ops: failed_back,
        stale_reads,
        max_end,
        ..
    } = shared;
    let mut sys = sys_back;
    ok_ops = ok_back;
    failed_ops = failed_back;

    // Drain the rest of the schedule, then retire every process.
    let target = SimTime::from_nanos(t0_ns + HORIZON_NS + 1).max(max_end);
    if sys.clock().now() < target {
        sys.clock().advance_to(target);
    }
    for p in exporters.iter().chain(consumers.iter()) {
        attempt!(sys.exit_process(*p));
    }

    let free_frames: Vec<Option<u64>> = (0..slots)
        .map(|i| {
            let e = EnclaveRef(i);
            sys.enclave_alive(e).then(|| sys.free_frames_of(e).unwrap())
        })
        .collect();
    Outcome {
        ok_ops,
        failed_ops,
        stale_reads,
        live_keys: live.into_iter().map(|(_, s, n)| (s, n)).collect(),
        removed_keys: removed
            .into_iter()
            .map(|(n, s, t)| (n, s, t.as_nanos()))
            .collect(),
        clock_ns: sys.clock().now().as_nanos(),
        free_frames,
        metrics: tracer.metrics_snapshot(),
        sums: tracer.audit().expect("conservation audit"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The equivalence theorem, 256 random schedules strong: every
    /// `(lanes, workers)` combination replays the serial reference —
    /// results, metrics, conservation sums — bit for bit.
    #[test]
    fn windowed_pdes_is_observationally_equivalent_to_serial(seed in any::<u64>()) {
        let reference = run_config(seed, 1, 1);
        prop_assert!(reference.metrics.is_some(), "tracer must be live");
        for (lanes, workers) in [(1, 8), (2, 1), (2, 8), (5, 1), (5, 8), (8, 1), (8, 8)] {
            let got = run_config(seed, lanes, workers);
            prop_assert_eq!(
                &got, &reference,
                "lanes={} workers={} diverged from the serial reference under seed {}",
                lanes, workers, seed
            );
        }
    }
}
