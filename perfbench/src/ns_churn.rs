//! `ns_churn`: a lookup storm with churn under faults, shaped like one
//! `nameserver_chaos` unit — 8 name-service shards × 2 replicas over
//! about 250 enclaves — and run on the PDES round grid.
//!
//! In every round each consumer searches 16 live names over a rotating
//! window, takes and releases a grant on 8 of them, and probes a removed
//! name, which must never resolve to its old segid once the removal
//! completed; in the lane phase it writes and reads back a scratch line
//! of its own. A churn actor withdraws the two oldest segments and
//! exports two fresh ones. Faults land in fixed rounds: 12 shard
//! outages, 4 replica crashes (2 leaders, 2 followers), the crash of one
//! worker enclave halfway through and the crash of one idle enclave; the
//! seed picks their targets. After the measured phase the surviving
//! processes exit.
//!
//! Host time lands in `core` name-service routing, leases and fault
//! delivery, plus PDES dispatch. There are no VMs, pool or tiers, and no
//! attaches: those per-layer figures read 0.

use std::time::Instant;

use xemem::trace_layer::{Ctx as SpanCtx, SpanKind, Timeline};
use xemem::{
    EnclaveRef, FaultPlan, LanePart, ProcessRef, Segid, SimDuration, SimTime, System,
    SystemBuilder, TraceHandle, VirtAddr, XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::SimRng;

use crate::check::Verdict;
use crate::episode::{frame_baseline, Episode, Ops, Phases, Size};
use crate::probe::{Op, Probe};

const MIB: u64 = 1 << 20;
const SEG: u64 = 64 * 1024;
const SHARDS: usize = 8;
const REPLICAS: usize = 2;
/// Virtual time between rounds (the chaos suite's stride: one lease
/// lifetime, so some lookups hit a live lease and some renew it).
const STRIDE_NS: u64 = 200_000;
/// Virtual time the rounds start at — past the end of set-up, so the
/// seed's faults all land inside the workload.
const GRID_T0_NS: u64 = 16_000_000;

struct Shape {
    kittens: usize,
    workers: usize,
    rounds: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            kittens: 251,
            workers: 16,
            rounds: 24,
        },
        Size::Smoke => Shape {
            kittens: 23,
            workers: 4,
            rounds: 6,
        },
    }
}

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
}

struct Live {
    owner: ProcessRef,
    segid: Segid,
    name: String,
}

struct Ctx {
    ops: Ops,
    tracer: TraceHandle,
    live: Vec<Live>,
    /// Withdrawn names with the virtual time their revocation completed.
    removed: Vec<(String, Segid, SimTime)>,
    stale_reads: u64,
    max_end: SimTime,
}

impl LaneShared for Ctx {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.ops.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.ops.sys, start);
    }

    fn on_barrier_resume(&mut self, barrier: SimTime, resume: SimTime) {
        <System as LaneShared>::on_barrier_resume(&mut self.ops.sys, barrier, resume);
    }
}

impl Ctx {
    /// One detached-timeline call, framed for the tracer like the chaos
    /// suite frames its ops.
    fn framed<T>(
        &mut self,
        op: Op,
        kind: SpanKind,
        ctx: SpanCtx,
        at: SimTime,
        f: impl FnOnce(&mut System, SimTime) -> Result<(T, SimTime), XememError>,
    ) -> Result<(T, SimTime), XememError> {
        let tracer = &self.tracer;
        let r = self.ops.op_at(op, |sys| {
            tracer.begin_op(kind, at, ctx, Timeline::Detached);
            let r = f(sys, at);
            match &r {
                Ok((_, end)) => tracer.commit_op(*end),
                Err(_) => tracer.abort_op(),
            }
            r
        });
        if let Ok((_, end)) = &r {
            self.max_end = self.max_end.max(*end);
        }
        r
    }

    /// A client learns a name is gone (its registration was lost with a
    /// dead leader, or withdrawn) and stops looking it up.
    fn forget(&mut self, segid: Segid, e: &XememError) {
        if matches!(e, XememError::UnknownName(_) | XememError::UnknownSegid(_)) {
            self.live.retain(|l| l.segid != segid);
        }
    }
}

/// One consumer: a round of lookups in its barrier event, and a scratch
/// write/read on its own enclave in the lane phase.
struct Consumer {
    c: usize,
    p: ProcessRef,
    scratch: Option<VirtAddr>,
    round: u64,
    grid: Grid,
    /// Lane-phase work, folded into the probe at the next barrier.
    local_ns: f64,
    local_calls: u64,
    local_errs: u64,
    local_max_end: SimTime,
}

impl Consumer {
    fn local_touch(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        let Some(va) = self.scratch else { return };
        let start = Instant::now();
        let pattern = [(self.round as u8) ^ 0x5A; 64];
        self.local_calls += 1;
        match part.write_at(self.p, va, &pattern, now) {
            Ok(end) => {
                let mut back = [0u8; 64];
                self.local_calls += 1;
                match part.read_at(self.p, va, &mut back, end) {
                    Ok(end) if back == pattern => self.local_max_end = self.local_max_end.max(end),
                    Ok(_) => self.local_errs += 1,
                    Err(_) => self.local_errs += 1,
                }
            }
            Err(_) => self.local_errs += 1,
        }
        self.local_ns += start.elapsed().as_nanos() as f64;
    }

    fn round(&mut self, at: SimTime, ctx: &mut Ctx) {
        if !ctx.ops.sys.enclave_alive(self.p.enclave) {
            // Its enclave crashed: the process is gone and issues nothing.
            self.scratch = None;
            self.round += 1;
            return;
        }
        let (ns, calls, errs) = (self.local_ns, self.local_calls, self.local_errs);
        ctx.ops.probe.lane_work(ns, calls, errs);
        (self.local_ns, self.local_calls, self.local_errs) = (0.0, 0, 0);
        ctx.max_end = ctx.max_end.max(self.local_max_end);
        ctx.ops.digest.time(self.local_max_end);
        let p = self.p;
        let pctx = SpanCtx::proc(p.enclave.0, p.pid.0);
        let mut t = at;
        for k in 0..16usize {
            if ctx.live.is_empty() {
                break;
            }
            let i = (self.c * 16 + k + self.round as usize) % ctx.live.len();
            let (segid, name) = {
                let l = &ctx.live[i];
                (l.segid, l.name.clone())
            };
            match ctx.framed(Op::Search, SpanKind::Search, pctx, t, |s, at| {
                s.search_at(p, &name, at)
            }) {
                Ok((found, end)) => {
                    if found != segid {
                        ctx.ops
                            .violation(format!("{name} resolved to {found:?}, live as {segid:?}"));
                    }
                    t = end;
                }
                Err(e) => ctx.forget(segid, &e),
            }
            if k % 2 != 0 {
                continue;
            }
            let sctx = SpanCtx::seg(p.enclave.0, p.pid.0, segid.0);
            let apid = match ctx.framed(Op::Get, SpanKind::Get, sctx, t, |s, at| {
                s.get_at(p, segid, at)
            }) {
                Ok((apid, end)) => {
                    t = end;
                    apid
                }
                Err(e) => {
                    ctx.forget(segid, &e);
                    continue;
                }
            };
            if let Ok(((), end)) = ctx.framed(Op::Release, SpanKind::Release, pctx, t, |s, at| {
                s.release_at(p, apid, at).map(|e| ((), e))
            }) {
                t = end;
            }
        }
        // Oracle probe: a name whose removal completed at T never
        // resolves to its old segid at or after T.
        if let Some((gone, gone_segid, gone_at)) =
            ctx.removed.get(self.c % ctx.removed.len().max(1)).cloned()
        {
            let probe_at = t;
            if let Ok((found, _)) = ctx.framed(Op::Search, SpanKind::Search, pctx, t, |s, at| {
                s.search_at(p, &gone, at)
            }) {
                if found == gone_segid && probe_at >= gone_at {
                    ctx.stale_reads += 1;
                }
            }
        }
        self.round += 1;
    }
}

/// The churn driver, ordered after every consumer at each grid time. It
/// withdraws the two oldest live names and exports two fresh ones from
/// the exporters in turn; only the fault schedule comes from the seed.
struct Churn {
    exporters: Vec<ProcessRef>,
    gen: u64,
    order: u64,
    round: u64,
    grid: Grid,
}

impl Churn {
    fn round(&mut self, at: SimTime, ctx: &mut Ctx) {
        let mut t = at;
        for _ in 0..2 {
            // The exporters' own view: drop what died with its owner.
            let sys = &ctx.ops.sys;
            ctx.live.retain(|l| sys.enclave_alive(l.owner.enclave));
            if ctx.live.len() > 4 {
                let Live { owner, segid, name } = ctx.live.remove(0);
                let sctx = SpanCtx::seg(owner.enclave.0, owner.pid.0, segid.0);
                if let Ok(((), end)) = ctx.framed(Op::Remove, SpanKind::Remove, sctx, t, |s, at| {
                    s.remove_at(owner, segid, at).map(|e| ((), e))
                }) {
                    t = end;
                    ctx.removed.push((name, segid, end));
                }
            }
        }
        for j in 0..2 {
            let w = (self.round as usize * 2 + j) % self.exporters.len();
            let exporter = self.exporters[w];
            if !ctx.ops.sys.enclave_alive(exporter.enclave) {
                continue;
            }
            let Ok((buf, end)) = ctx
                .ops
                .op_at(Op::AllocBuffer, |s| s.alloc_buffer_at(exporter, SEG, t))
            else {
                continue;
            };
            t = end;
            let name = format!("c:{w}:{}", self.gen);
            self.gen += 1;
            let pctx = SpanCtx::proc(exporter.enclave.0, exporter.pid.0);
            let Ok((segid, end)) = ctx.framed(Op::Make, SpanKind::Make, pctx, t, |s, at| {
                s.make_at(exporter, buf, SEG, Some(&name), at)
            }) else {
                continue;
            };
            t = end;
            ctx.live.push(Live {
                owner: exporter,
                segid,
                name,
            });
        }
        ctx.max_end = ctx.max_end.max(t);
        self.round += 1;
    }
}

enum Actor {
    Consumer(Consumer),
    Churn(Churn),
}

impl PdesActor<Ctx> for Actor {
    fn lane_key(&self) -> u64 {
        match self {
            Actor::Consumer(c) => c.p.enclave.0 as u64,
            Actor::Churn(_) => 0,
        }
    }

    fn order_key(&self) -> u64 {
        match self {
            Actor::Consumer(c) => c.c as u64,
            Actor::Churn(ch) => ch.order,
        }
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(match self {
            Actor::Consumer(c) => c.grid.at(0),
            Actor::Churn(ch) => ch.grid.at(0),
        })
    }

    fn has_local(&self) -> bool {
        matches!(self, Actor::Consumer(c) if c.scratch.is_some())
    }

    fn local(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        if let Actor::Consumer(c) = self {
            c.local_touch(now, part);
        }
    }

    fn barrier(&mut self, now: SimTime, ctx: &mut Ctx) -> Option<SimTime> {
        let start = ctx.ops.probe.enter();
        let (round, grid, step) = match self {
            Actor::Consumer(c) => {
                let step = c.round * 1024 + c.c as u64;
                c.round(now, ctx);
                (c.round, c.grid, Some(step))
            }
            Actor::Churn(ch) => {
                ch.round(now, ctx);
                (ch.round, ch.grid, None)
            }
        };
        ctx.ops.probe.leave(start, step);
        (round < grid.rounds).then(|| grid.at(round))
    }
}

/// The seed's fault schedule: shard outages, replica crashes that never
/// take both replicas of a shard, and two workload-enclave crashes. The
/// seed picks only the targets; counts, rounds, durations and offsets
/// are fixed. Step costs climb with the core-0 backlog over the rounds,
/// so a seed that also placed the faults would move the slowest steps.
fn fault_plan(
    rng: &mut SimRng,
    enclaves: usize,
    first_worker: usize,
    workers: usize,
    rounds: u64,
) -> FaultPlan {
    let at_round = |r: u64| SimTime::from_nanos(GRID_T0_NS + r * STRIDE_NS);
    // The k-th of n faults lands in a fixed round, spread evenly after
    // the first two rounds.
    let spread = |k: u64, n: u64| at_round(2 + k * (rounds - 2) / n);
    let mut plan = FaultPlan::new();
    for k in 0..12 {
        let at = spread(k, 12);
        let shard = rng.uniform_u64(0, SHARDS as u64) as usize;
        plan = plan.name_server_shard_outage(at, shard, SimDuration::from_nanos(STRIDE_NS / 2));
    }
    // Four shards lose one replica each: two leaders (slot `s`), two
    // followers (slot `s + SHARDS`). Shard 0's leader is the topology
    // root, so it is never picked.
    let mut shards: Vec<usize> = Vec::new();
    while shards.len() < 4 {
        let s = rng.uniform_u64(1, SHARDS as u64) as usize;
        if !shards.contains(&s) {
            shards.push(s);
        }
    }
    for (i, &s) in shards.iter().enumerate() {
        let slot = if i < 2 { s } else { s + SHARDS };
        plan = plan.crash_enclave(spread(2 * i as u64 + 1, 8), slot);
    }
    // One worker enclave dies halfway through, so every seed loses the
    // same share of work; one idle enclave dies three quarters through.
    let worker = rng.uniform_u64(first_worker as u64, (first_worker + workers) as u64) as usize;
    plan = plan.crash_enclave(at_round(rounds / 2), worker);
    let idle = rng.uniform_u64((first_worker + workers) as u64, enclaves as u64) as usize;
    plan = plan.crash_enclave(spread(3, 4), idle);
    plan
}

pub fn episode(seed: u64, size: Size, probe: Probe, tracer: &TraceHandle) -> (Episode, Probe) {
    let shape = shape(size);
    let mut rng = SimRng::seed_from_u64(seed);
    let kittens = shape.kittens;
    let plan = fault_plan(
        &mut rng,
        kittens + 1,
        SHARDS * REPLICAS,
        shape.workers,
        shape.rounds,
    );

    let mut phases = Phases::start();
    let mut b = SystemBuilder::new().linux_management("linux", 4, 128 * MIB);
    for i in 0..kittens {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 36 * MIB);
    }
    let built = b
        .name_service_shards(SHARDS, REPLICAS)
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build();
    let mut sys = match built {
        Ok(s) => s,
        Err(e) => return (Episode::failed(format!("build: {e}")), probe),
    };
    let baseline = frame_baseline(&sys);
    let first_worker = SHARDS * REPLICAS;
    let setup = (|| -> Result<_, XememError> {
        let mut exporters = Vec::new();
        let mut consumers = Vec::new();
        for w in 0..shape.workers {
            let e = EnclaveRef(first_worker + w);
            exporters.push(sys.spawn_process(e, 2 * MIB)?);
            consumers.push(sys.spawn_process(e, MIB)?);
        }
        let mut live = Vec::new();
        let mut gen = 0u64;
        for (w, &exporter) in exporters.iter().enumerate() {
            for _ in 0..4 {
                let buf = sys.alloc_buffer(exporter, SEG)?;
                let name = format!("c:{w}:{gen}");
                gen += 1;
                let segid = sys.xpmem_make(exporter, buf, SEG, Some(&name))?;
                live.push(Live {
                    owner: exporter,
                    segid,
                    name,
                });
            }
        }
        let mut scratch = Vec::new();
        for &c in &consumers {
            scratch.push(Some(sys.alloc_buffer(c, 4096)?));
        }
        Ok((exporters, consumers, live, scratch, gen))
    })();
    let (exporters, consumers, live, scratch, gen) = match setup {
        Ok(v) => v,
        Err(e) => return (Episode::failed(format!("setup: {e}")), probe),
    };

    let set_up_at = sys.clock().now();
    let grid = Grid {
        t0_ns: GRID_T0_NS.max(set_up_at.as_nanos()),
        stride_ns: STRIDE_NS,
        rounds: shape.rounds,
    };
    let mut actors: Vec<Actor> = consumers
        .iter()
        .zip(&scratch)
        .enumerate()
        .map(|(c, (&p, &scratch))| {
            Actor::Consumer(Consumer {
                c,
                p,
                scratch,
                round: 0,
                grid,
                local_ns: 0.0,
                local_calls: 0,
                local_errs: 0,
                local_max_end: SimTime::ZERO,
            })
        })
        .collect();
    actors.push(Actor::Churn(Churn {
        exporters: exporters.clone(),
        gen,
        order: consumers.len() as u64,
        round: 0,
        grid,
    }));
    sys.clock().advance_to(grid.at(0));
    let cfg = PdesConfig::serial(sys.pdes_lookahead());
    let mut ctx = Ctx {
        ops: Ops::new(sys, probe),
        tracer: tracer.clone(),
        live,
        removed: Vec::new(),
        stale_reads: 0,
        max_end: SimTime::from_nanos(grid.t0_ns),
    };
    let (calls0, steps0) = (ctx.ops.probe.attempted, ctx.ops.probe.steps.len());
    phases.measure();
    let start = Instant::now();
    let (_, pdes) = run_lanes(&cfg, &mut actors, &mut ctx);
    ctx.ops.probe.dispatched(start);
    let calls = ctx.ops.probe.attempted - calls0;
    let (setup, measured) = phases.finish();

    // Drain: march the clock past the grid so every scheduled fault
    // lands, let the surviving processes exit, then audit.
    let target = grid.at(grid.rounds).max(ctx.max_end);
    let sys = &mut ctx.ops.sys;
    if sys.clock().now() < target {
        sys.clock().advance_to(target);
    }
    sys.deliver_pending_faults();
    for &p in consumers.iter().chain(&exporters) {
        // A process whose enclave crashed is already gone.
        let _ = sys.exit_process(p);
    }
    ctx.ops.check_frames(&baseline);
    if set_up_at.as_nanos() > GRID_T0_NS {
        let t = set_up_at.as_nanos();
        ctx.ops.violation(format!(
            "set-up ran to {t} ns, past the fault schedule's base"
        ));
    }
    if ctx.stale_reads > 0 {
        let n = ctx.stale_reads;
        ctx.ops
            .violation(format!("{n} lookups returned a revoked segid"));
    }
    let ns = ctx.ops.sys.name_service();
    let failovers: u64 = (0..ns.shard_count()).map(|s| ns.failover_count(s)).sum();
    let clock = ctx.ops.sys.clock().now();
    let d = &mut ctx.ops.digest;
    d.u64(failovers);
    d.time(clock);
    d.u64(pdes.windows);
    d.u64(pdes.events);
    let facts = vec![
        ("clock_ns", clock.as_nanos() as f64),
        ("set_up_ns", set_up_at.as_nanos() as f64),
        ("failovers", failovers as f64),
        ("removed_names", ctx.removed.len() as f64),
        ("stale_reads", ctx.stale_reads as f64),
    ];
    let episode = Episode {
        setup,
        measured,
        calls,
        steps: steps0..ctx.ops.probe.steps.len(),
        verdict: Verdict {
            digest: ctx.ops.digest.value(),
            violations: ctx.ops.violations,
            facts,
            errors: ctx.ops.errors,
        },
        pdes,
    };
    (episode, ctx.ops.probe)
}
