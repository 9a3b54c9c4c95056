//! Name-service chaos suite — the sharded service's acceptance
//! gauntlet, driven by the windowed PDES engine.
//!
//! Forty independent node sessions of 250 enclaves each (10,000
//! enclaves total) drive millions of make/search/get/remove operations
//! through an 8-shard × 2-replica name service while a seeded schedule
//! injects shard-scoped outages and replica crashes (leader crashes
//! included) mid-run. The workload runs on a round grid under
//! [`xemem_sim::pdes::run_lanes`]: each consumer is a PDES actor whose
//! barrier event bundles one round of lookups, and whose lane phase
//! touches a scratch buffer on its own enclave — so `--lanes N` splits
//! the enclave-local work across event lanes while the schedule (and
//! every printed number) stays bit-identical to `--lanes 1`. Each unit
//! asserts, in-run:
//!
//! * **zero leaked frames** — every surviving enclave ends at its
//!   pre-workload free-frame count, and its allocator took back every
//!   crash quarantine;
//! * **zero post-revocation stale reads** — once a named segment's
//!   removal completes at virtual time T, no lookup at or after T may
//!   return that segid (leases are revoked eagerly and epoch-fenced
//!   across failovers); every unit re-probes its removed names every
//!   round. Probes whose bundled virtual time lands before T read
//!   pre-removal history, which is legal under out-of-order chain
//!   execution and not counted;
//! * **conservation** — units run under per-run tracers and the
//!   session epilogue audits every one: leaf spans must tile their
//!   roots exactly.
//!
//! Units are split-seeded from the root seed and the unit index, so
//! the printed table is byte-identical at `--jobs 1` and `--jobs N`,
//! and at `--lanes 1` and `--lanes N` — CI's `nameserver-chaos` and
//! `pdes-determinism` jobs diff exactly that.

use xemem::trace_layer::{Ctx, ShardCounter, SpanKind, Timeline};
use xemem::{
    FaultPlan, LanePart, ProcessRef, Segid, System, SystemBuilder, TraceHandle, VirtAddr,
    XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::{SimDuration, SimRng, SimTime};

const MIB: u64 = 1 << 20;
/// Root seed for the suite.
pub const ROOT_SEED: u64 = 0xC4A0_55EED;
/// Name-service shards per unit.
pub const SHARDS: usize = 8;
/// Replicas per shard (the first is the leader).
pub const REPLICAS: usize = 2;

/// Virtual-time horizon the fault schedule is spread over.
const HORIZON_NS: u64 = 20_000_000; // 20 ms

/// One unit's outcome row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRow {
    /// Unit index.
    pub unit: usize,
    /// Enclaves in the unit (management + co-kernels).
    pub enclaves: usize,
    /// Operations that completed.
    pub ok_ops: u64,
    /// Operations that failed under injected faults (outage budgets,
    /// dead enclaves, lost registrations).
    pub failed_ops: u64,
    /// Leader failovers observed across the unit's shards.
    pub failovers: u64,
    /// Registrations lost to failovers (unreplicated at leader death),
    /// summed from the unit tracer's per-shard counters — so 0 when the
    /// unit runs untraced.
    pub lost_registrations: u64,
    /// Lookups at or after a removal's completed virtual time that
    /// still returned the revoked segid (the suite asserts this is
    /// zero; earlier-timed lookups read pre-removal history legally).
    pub stale_reads: u64,
    /// Final virtual clock, nanoseconds.
    pub clock_ns: u64,
}

/// Unit geometry: enclaves and workload rounds.
pub fn geometry(smoke: bool) -> (usize, usize, u64) {
    if smoke {
        // (units, kittens per unit, rounds)
        (4, 23, 10)
    } else {
        (40, 249, 100)
    }
}

/// Shared state the chaos actors coordinate through at barriers: the
/// full [`System`] plus the live/removed key books and the outcome
/// tallies. The lane phase sees only per-enclave [`LanePart`]s.
struct ChaosCtx {
    sys: System,
    tracer: TraceHandle,
    live: Vec<(ProcessRef, Segid, String)>,
    /// Withdrawn names with the virtual time their revocation
    /// completed: the oracle counts a probe as stale only when the
    /// probe's virtual time is at or after that completion — a probe
    /// whose bundled time lands *before* the removal is a
    /// virtually-consistent read of history, not a staleness bug.
    removed: Vec<(String, Segid, SimTime)>,
    ok_ops: u64,
    failed_ops: u64,
    stale_reads: u64,
    /// Latest completion time booked by any op — where the clock jumps
    /// to before teardown.
    max_end: SimTime,
}

impl ChaosCtx {
    /// Frame one cross-enclave op on the detached timeline and tally
    /// its outcome, mirroring what the clock-based `framed` wrappers do
    /// for the serial reference workloads.
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

    /// [`System::alloc_buffer_at`] (which frames itself), tallied.
    fn alloc_at(&mut self, p: ProcessRef, len: u64, at: SimTime) -> Option<(VirtAddr, SimTime)> {
        match self.sys.alloc_buffer_at(p, len, at) {
            Ok((va, end)) => {
                self.ok_ops += 1;
                self.max_end = self.max_end.max(end);
                Some((va, end))
            }
            Err(_) => {
                self.failed_ops += 1;
                None
            }
        }
    }
}

impl LaneShared for ChaosCtx {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.sys, start);
    }

    fn on_barrier_resume(&mut self, barrier: SimTime, resume: SimTime) {
        <System as LaneShared>::on_barrier_resume(&mut self.sys, barrier, resume);
    }
}

/// The round grid every actor's barrier events land on: `T_r = t0 +
/// r·stride`, with the stride (20 ms / rounds) far above the PDES
/// lookahead so bundled rounds always respect the window contract.
#[derive(Clone, Copy)]
struct Grid {
    t0_ns: u64,
    stride_ns: u64,
    rounds: u64,
}

impl Grid {
    fn at(&self, round: u64) -> SimTime {
        SimTime::from_nanos(self.t0_ns + round * self.stride_ns)
    }

    fn next(&self, round: u64) -> Option<SimTime> {
        (round < self.rounds).then(|| self.at(round))
    }
}

/// One consumer: its barrier event bundles a round of the lookup storm
/// (16 searches over a rotating window of the live key space, grants on
/// half, plus the removed-name oracle probe); its lane phase touches a
/// scratch buffer on its own enclave so `--lanes`/workers have real
/// enclave-local work to parallelize.
struct Consumer {
    c: usize,
    p: ProcessRef,
    scratch: Option<VirtAddr>,
    round: u64,
    grid: Grid,
    /// Lane-phase tallies, folded into the shared counters at the next
    /// barrier (the lane phase cannot touch shared state).
    local_ok: u64,
    local_failed: u64,
    local_max_end: SimTime,
}

impl Consumer {
    fn local_touch(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        let Some(va) = self.scratch else { return };
        debug_assert!(part.owns(self.p.enclave));
        let pattern = [(self.round as u8) ^ 0x5A; 64];
        match part.write_at(self.p, va, &pattern, now) {
            Ok(end) => {
                self.local_ok += 1;
                let mut back = [0u8; 64];
                match part.read_at(self.p, va, &mut back, end) {
                    Ok(end) => {
                        debug_assert_eq!(back, pattern, "lane-local readback mismatch");
                        self.local_ok += 1;
                        self.local_max_end = self.local_max_end.max(end);
                    }
                    Err(_) => self.local_failed += 1,
                }
            }
            Err(_) => self.local_failed += 1,
        }
    }

    fn round_barrier(&mut self, at: SimTime, ctx: &mut ChaosCtx) -> Option<SimTime> {
        // Fold the lane-phase tallies in first, so the shared counters
        // stay a pure function of the (deterministic) event schedule.
        ctx.ok_ops += std::mem::take(&mut self.local_ok);
        ctx.failed_ops += std::mem::take(&mut self.local_failed);
        ctx.max_end = ctx.max_end.max(self.local_max_end);
        let p = self.p;
        let pctx = Ctx::proc(p.enclave.0, p.pid.0);
        let mut t = at;
        // Lookup storm: search a rotating window of the live key space
        // and take grants on half of it.
        for k in 0..16usize {
            if ctx.live.is_empty() {
                break;
            }
            let (_, segid, name) =
                &ctx.live[(self.c * 16 + k + self.round as usize) % ctx.live.len()];
            let (segid, name) = (*segid, name.clone());
            if let Some((found, end)) = ctx.framed_at(SpanKind::Search, pctx, t, |sys, at| {
                sys.search_at(p, &name, at)
            }) {
                debug_assert_eq!(found, segid);
                t = end;
            }
            if k % 2 == 0 {
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
        // Oracle probe: once a name's revocation has completed at
        // virtual time T, no lookup at or after T may resolve it to the
        // old segid, whatever the schedule did to its shard. (A probe
        // whose time lands before T reads pre-removal history — legal.)
        if let Some((gone_name, gone_segid, gone_at)) =
            ctx.removed.get(self.c % ctx.removed.len().max(1)).cloned()
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
        self.round += 1;
        self.grid.next(self.round)
    }
}

/// The churn driver: one actor, ordered after every consumer at each
/// grid time, owning the unit's RNG — it withdraws two live keys
/// (recording their removal for the oracle) and exports two fresh ones
/// per round, exactly like the serial suite did.
struct Churn {
    rng: SimRng,
    exporters: Vec<ProcessRef>,
    unit: usize,
    gen: u64,
    order: u64,
    round: u64,
    grid: Grid,
}

impl Churn {
    fn round_barrier(&mut self, at: SimTime, ctx: &mut ChaosCtx) -> Option<SimTime> {
        let mut t = at;
        for _ in 0..2 {
            if ctx.live.len() > 4 {
                let idx = self.rng.uniform_u64(0, ctx.live.len() as u64) as usize;
                let (owner, segid, name) = ctx.live.swap_remove(idx);
                let sctx = Ctx::seg(owner.enclave.0, owner.pid.0, segid.0);
                if let Some(((), end)) = ctx.framed_at(SpanKind::Remove, sctx, t, |sys, at| {
                    sys.remove_at(owner, segid, at).map(|e| ((), e))
                }) {
                    t = end;
                    ctx.removed.push((name, segid, end));
                }
            }
        }
        for _ in 0..2 {
            let w = self.rng.uniform_u64(0, self.exporters.len().max(1) as u64) as usize;
            if let Some(&exporter) = self.exporters.get(w) {
                if let Some((buf, end)) = ctx.alloc_at(exporter, 64 * 1024, t) {
                    t = end;
                    let name = format!("c{}:{w}:{}", self.unit, self.gen);
                    self.gen += 1;
                    let pctx = Ctx::proc(exporter.enclave.0, exporter.pid.0);
                    if let Some((segid, end)) = ctx.framed_at(SpanKind::Make, pctx, t, |sys, at| {
                        sys.make_at(exporter, buf, 64 * 1024, Some(&name), at)
                    }) {
                        t = end;
                        ctx.live.push((exporter, segid, name));
                    }
                }
            }
        }
        self.round += 1;
        self.grid.next(self.round)
    }
}

/// The unit's actor set, merged at barriers by `(time, order_key)` —
/// consumers in index order, then churn — matching the serial suite's
/// per-round op order at any lane/worker count.
enum ChaosActor {
    Consumer(Consumer),
    Churn(Churn),
}

impl PdesActor<ChaosCtx> for ChaosActor {
    fn lane_key(&self) -> u64 {
        match self {
            // A consumer's lane is its enclave's — the same hash
            // `System::lane_parts` partitions slots by, so its lane
            // phase always finds its own slot in its partition.
            ChaosActor::Consumer(c) => c.p.enclave.0 as u64,
            ChaosActor::Churn(_) => 0,
        }
    }

    fn order_key(&self) -> u64 {
        match self {
            ChaosActor::Consumer(c) => c.c as u64,
            ChaosActor::Churn(ch) => ch.order,
        }
    }

    fn first_event(&self) -> Option<SimTime> {
        match self {
            ChaosActor::Consumer(c) => c.grid.next(0).filter(|_| c.round == 0),
            ChaosActor::Churn(ch) => ch.grid.next(0).filter(|_| ch.round == 0),
        }
    }

    fn has_local(&self) -> bool {
        matches!(self, ChaosActor::Consumer(c) if c.scratch.is_some())
    }

    fn local(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        if let ChaosActor::Consumer(c) = self {
            c.local_touch(now, part);
        }
    }

    fn barrier(&mut self, now: SimTime, shared: &mut ChaosCtx) -> Option<SimTime> {
        match self {
            ChaosActor::Consumer(c) => c.round_barrier(now, shared),
            ChaosActor::Churn(ch) => ch.round_barrier(now, shared),
        }
    }
}

/// Run one unit under an explicit tracer (spans, per-shard metrics and
/// the conservation audit all report into it; pass the disabled handle
/// to run dark). `seed` must already be split per unit; `lanes` picks
/// the PDES lane count (1 = the reference schedule, which every other
/// count replays bit for bit).
pub fn run_unit(
    unit: usize,
    seed: u64,
    smoke: bool,
    lanes: usize,
    tracer: &TraceHandle,
) -> Result<ChaosRow, XememError> {
    let (_, kittens, rounds) = geometry(smoke);
    let mut rng = SimRng::seed_from_u64(seed);

    // Fault schedule: shard-scoped outages plus replica crashes. Crash
    // targets stay off slot 0 (the topology root — killing it would
    // sever routing for the whole node, which is a different
    // experiment) and never take both replicas of one shard, so every
    // shard survives its failovers and the workload keeps running.
    let mut plan = FaultPlan::new();
    for _ in 0..12 {
        let at = SimTime::from_nanos(rng.uniform_u64(HORIZON_NS / 10, HORIZON_NS));
        let dur = SimDuration::from_nanos(rng.uniform_u64(20_000, 150_000));
        let shard = rng.uniform_u64(0, SHARDS as u64) as usize;
        plan = plan.name_server_shard_outage(at, shard, dur);
    }
    let mut crashed: Vec<usize> = Vec::new();
    while crashed.len() < 4 {
        let slot = rng.uniform_u64(1, (SHARDS * REPLICAS) as u64) as usize;
        let partner = (slot + SHARDS) % (SHARDS * REPLICAS);
        if crashed.contains(&slot) || crashed.contains(&partner) {
            continue;
        }
        let at = SimTime::from_nanos(rng.uniform_u64(HORIZON_NS / 10, HORIZON_NS));
        plan = plan.crash_enclave(at, slot);
        crashed.push(slot);
    }
    // Two workload-enclave crashes: their exports get revoked through
    // the crash-consistent protocol while consumers hold leases.
    for _ in 0..2 {
        let slot = rng.uniform_u64((SHARDS * REPLICAS) as u64, (kittens + 1) as u64) as usize;
        let at = SimTime::from_nanos(rng.uniform_u64(HORIZON_NS / 10, HORIZON_NS));
        plan = plan.crash_enclave(at, slot);
    }

    // A Kitten process image is text+data+stack (12 MiB) plus heap,
    // physically contiguous; worker enclaves host an exporter (2 MiB
    // heap for its export buffers) and a consumer.
    let mut b = SystemBuilder::new().linux_management("linux", 4, 128 * MIB);
    for i in 0..kittens {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 36 * MIB);
    }
    let mut sys = b
        .name_service_shards(SHARDS, REPLICAS)
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()?;

    let enclaves = kittens + 1;
    let baselines: Vec<Option<u64>> = (0..enclaves)
        .map(|i| {
            let e = xemem::EnclaveRef(i);
            sys.enclave_alive(e).then(|| sys.free_frames_of(e).unwrap())
        })
        .collect();

    let mut ok_ops = 0u64;
    let mut failed_ops = 0u64;
    let mut stale_reads = 0u64;
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

    // 16 exporter/consumer pairs on slots past the replica set.
    let first_free = SHARDS * REPLICAS;
    let n_workers = 16.min(enclaves - first_free);
    let mut exporters: Vec<ProcessRef> = Vec::new();
    let mut consumers: Vec<ProcessRef> = Vec::new();
    for w in 0..n_workers {
        let enc = xemem::EnclaveRef(first_free + w);
        if let Some(p) = attempt!(sys.spawn_process(enc, 2 * MIB)) {
            exporters.push(p);
        }
        if let Some(p) = attempt!(sys.spawn_process(enc, MIB)) {
            consumers.push(p);
        }
    }

    // Initial exports: 4 named keys per exporter, hash-spread over
    // every shard.
    let mut gen = 0u64;
    let mut live: Vec<(ProcessRef, xemem::Segid, String)> = Vec::new();
    let removed: Vec<(String, xemem::Segid, SimTime)> = Vec::new();
    for (w, &exporter) in exporters.iter().enumerate() {
        for _ in 0..4 {
            if let Some(buf) = attempt!(sys.alloc_buffer(exporter, 64 * 1024)) {
                let name = format!("c{unit}:{w}:{gen}");
                gen += 1;
                if let Some(segid) = attempt!(sys.xpmem_make(exporter, buf, 64 * 1024, Some(&name)))
                {
                    live.push((exporter, segid, name));
                }
            }
        }
    }

    // The workload proper runs on the PDES round grid: every consumer
    // and the churn driver fire at T_r = t0 + r·(horizon/rounds), and
    // the engine merges their barrier events by (time, order) — so the
    // op sequence is identical at every lane and worker count.
    let grid = Grid {
        t0_ns: sys.clock().now().as_nanos(),
        stride_ns: HORIZON_NS / rounds,
        rounds,
    };
    let mut actors: Vec<ChaosActor> = Vec::new();
    for (c, &consumer) in consumers.iter().enumerate() {
        let scratch = attempt!(sys.alloc_buffer(consumer, 4096));
        actors.push(ChaosActor::Consumer(Consumer {
            c,
            p: consumer,
            scratch,
            round: 0,
            grid,
            local_ok: 0,
            local_failed: 0,
            local_max_end: SimTime::ZERO,
        }));
    }
    actors.push(ChaosActor::Churn(Churn {
        rng,
        exporters: exporters.clone(),
        unit,
        gen,
        order: consumers.len() as u64,
        round: 0,
        grid,
    }));

    let lookahead = sys.pdes_lookahead();
    let mut ctx = ChaosCtx {
        sys,
        tracer: tracer.clone(),
        live,
        removed,
        ok_ops,
        failed_ops,
        stale_reads,
        max_end: SimTime::from_nanos(grid.t0_ns),
    };
    run_lanes(&PdesConfig::new(lanes, lookahead), &mut actors, &mut ctx);
    let ChaosCtx {
        sys: sys_back,
        ok_ops: ok_back,
        failed_ops: failed_back,
        stale_reads: stale_back,
        max_end,
        ..
    } = ctx;
    let mut sys = sys_back;
    ok_ops = ok_back;
    failed_ops = failed_back;
    stale_reads = stale_back;

    // March the clock past everything the grid booked, so teardown (and
    // any straggling fault deliveries) happen after the workload.
    let target = SimTime::from_nanos(grid.t0_ns + grid.stride_ns * rounds).max(max_end);
    if sys.clock().now() < target {
        sys.clock().advance_to(target);
    }

    // Graceful teardown, then the leak audit: every surviving enclave
    // must be back at its baseline, and no crash quarantine refused.
    for p in exporters.iter().chain(consumers.iter()) {
        attempt!(sys.exit_process(*p));
    }
    for (i, base) in baselines.iter().enumerate() {
        let e = xemem::EnclaveRef(i);
        if let (Some(base), true) = (base, sys.enclave_alive(e)) {
            let now = sys.free_frames_of(e).unwrap();
            assert_eq!(
                now, *base,
                "unit {unit}: enclave {i} leaked or double-freed frames ({now} vs {base})"
            );
        }
    }
    assert_eq!(
        sys.outstanding_loans(),
        0,
        "unit {unit}: refused quarantine returns"
    );
    assert_eq!(stale_reads, 0, "unit {unit}: post-revocation stale reads");

    let ns = sys.name_service();
    let failovers = (0..ns.shard_count()).map(|s| ns.failover_count(s)).sum();
    let lost_registrations: u64 = (0..ns.shard_count())
        .map(|s| tracer.shard_counter(s, ShardCounter::LostRegistrations))
        .sum();

    Ok(ChaosRow {
        unit,
        enclaves,
        ok_ops,
        failed_ops,
        failovers,
        lost_registrations,
        stale_reads,
        clock_ns: sys.clock().now().as_nanos(),
    })
}

/// Run the whole suite through a parallel session whose per-run tracers
/// are conservation-audited by the caller's epilogue. `lanes` is the
/// intra-unit PDES lane count; rows are bit-identical at any value.
pub fn run(
    session: &mut crate::driver::ParSession,
    smoke: bool,
    lanes: usize,
) -> Result<Vec<ChaosRow>, XememError> {
    let (units, _, _) = geometry(smoke);
    session.run(units, |i, tracer| {
        let _scope = tracer.scope();
        run_unit(
            i,
            xemem_sim::split_seed(ROOT_SEED, i as u64),
            smoke,
            lanes,
            tracer,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem::TraceHandle;

    /// The tentpole determinism claim, unit-sized: one chaos unit run
    /// at lanes {2, 5, 8} reproduces the lanes=1 reference row — every
    /// counter, every clock reading — bit for bit. Each run gets its own
    /// enabled tracer, so the lost-registration column is compared too.
    #[test]
    fn lanes_replay_the_reference_unit_bit_for_bit() {
        let seed = xemem_sim::split_seed(ROOT_SEED, 1);
        let reference = run_unit(1, seed, true, 1, &TraceHandle::enabled()).unwrap();
        assert!(reference.ok_ops > 0);
        for lanes in [2usize, 5, 8] {
            let row = run_unit(1, seed, true, lanes, &TraceHandle::enabled()).unwrap();
            assert_eq!(row, reference, "lanes={lanes} diverged from the reference");
        }
    }
}
