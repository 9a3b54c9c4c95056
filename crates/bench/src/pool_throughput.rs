//! Buffer-pool throughput figure — acquire/release and ring ops per
//! virtual second as the consumer-enclave count grows, with a crash
//! sweep injected mid-run on the multi-consumer units.
//!
//! Each unit exports one [`xemem_pool::BufferPool`] from the Linux
//! management enclave and joins N Kitten consumers (N is the sweep
//! axis). The workload runs on a PDES round grid under
//! [`xemem_sim::pdes::run_lanes`]: the producer actor sweeps crash
//! notices, then acquires and publishes one slot into every live
//! consumer's ring per round; each consumer actor pops up to two
//! visible entries, carries holds across rounds, and releases its
//! oldest hold — so a mid-run crash always finds both consumed holds
//! and in-flight ring entries to reclaim. Units with at least two
//! consumers schedule one `pool_consumer_crash` through the fault
//! plan; the unit asserts the crashed consumer's references are swept
//! exactly once and that the pool's end-of-run leak check passes
//! (every slot back on the free list, refs all zero).
//!
//! Every pool op is charged in virtual time and framed on the
//! detached timeline, so the session epilogue's conservation audit
//! covers the pool exactly like the protocol paths; publishes and
//! consumes are linked by `slot_publish_consume` edges and sweeps by
//! `crash_slot_sweep` edges, which flow into `--trace-out` /
//! `--obs-report` exports. Units are split-seeded from the root seed,
//! and the workload grid is deterministic, so the printed table is
//! byte-identical at `--jobs 1` and `--jobs N`, and at `--lanes 1`
//! and `--lanes N` — CI's `pool-chaos` job diffs exactly that.

use xemem::XememError;
use xemem::{EnclaveRef, FaultPlan, LanePart, ProcessRef, System, SystemBuilder, TraceHandle};
use xemem_pool::{BufferPool, ConsumerId, Holder, PoolError, SlotGuard};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::{SimRng, SimTime};

const MIB: u64 = 1 << 20;
/// Root seed for the suite.
pub const ROOT_SEED: u64 = 0x900_15EED;
/// Payload bytes per pool slot.
pub const SLOT_BYTES: u64 = 4 * 1024;
/// Per-consumer ring capacity.
pub const RING_CAP: usize = 8;

/// Virtual-time horizon of each unit's workload grid.
const HORIZON_NS: u64 = 20_000_000; // 20 ms
/// Crash window (absolute virtual time): far past setup — spawns,
/// pool export, joins all complete within the first couple of
/// milliseconds even at 16 consumers — and well inside the grid.
const CRASH_EARLIEST_NS: u64 = 10_000_000;
const CRASH_LATEST_NS: u64 = 15_000_000;

/// One unit's outcome row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRow {
    /// Unit index (position on the consumer-count axis).
    pub unit: usize,
    /// Enclaves in the unit (1 management + N consumers).
    pub enclaves: usize,
    /// Slots acquired by the producer.
    pub acquires: u64,
    /// References released (producer bounces + consumer holds).
    pub releases: u64,
    /// Ring publishes that completed.
    pub published: u64,
    /// Ring entries consumed.
    pub consumed: u64,
    /// References reclaimed by crash sweeps.
    pub swept: u64,
    /// Operations that failed (ring full, crashed consumer, exhausted).
    pub failed_ops: u64,
    /// Deepest any consumer ring got during the run.
    pub ring_peak: u64,
    /// Completed pool ops (acquire + release + publish + consume) per
    /// virtual millisecond of the workload horizon.
    pub ops_per_vms: u64,
    /// Final virtual clock, nanoseconds.
    pub clock_ns: u64,
}

/// Sweep geometry: consumer counts per unit and grid rounds.
pub fn geometry(smoke: bool) -> (&'static [usize], u64) {
    if smoke {
        (&[1, 2, 4], 10)
    } else {
        (&[1, 2, 4, 8, 16], 100)
    }
}

/// Shared state the actors coordinate through at barriers.
struct PoolCtx {
    sys: System,
    pool: BufferPool,
    acquires: u64,
    releases: u64,
    published: u64,
    consumed: u64,
    swept: u64,
    failed_ops: u64,
    ring_peak: u64,
}

impl LaneShared for PoolCtx {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.sys, start);
    }
}

fn grid_at(t0_ns: u64, stride_ns: u64, round: u64) -> SimTime {
    SimTime::from_nanos(t0_ns + round * stride_ns)
}

/// Producer (order 0) and consumer (order 1..) actors on the round
/// grid, merged at barriers by `(time, order)` — so the op sequence is
/// identical at every lane and worker count.
struct Actor {
    order: u64,
    p: ProcessRef,
    /// `Some(id)` for consumers; `None` marks the producer.
    consumer: Option<ConsumerId>,
    held: Vec<SlotGuard>,
    round: u64,
    rounds: u64,
    t0_ns: u64,
    stride_ns: u64,
    n_consumers: usize,
}

impl Actor {
    fn producer_round(&mut self, at: SimTime, ctx: &mut PoolCtx) {
        let (n, _t) = ctx.pool.sweep_at(&mut ctx.sys, at);
        ctx.swept += n;
        let mut t = at;
        for c in 0..self.n_consumers {
            let id = ConsumerId(c);
            if !ctx.pool.consumer_alive(id) {
                continue;
            }
            match ctx.pool.acquire_at(t) {
                Ok((guard, end)) => {
                    ctx.acquires += 1;
                    t = end;
                    match ctx.pool.publish_at(id, guard, t) {
                        Ok(end) => {
                            ctx.published += 1;
                            t = end;
                            ctx.ring_peak = ctx.ring_peak.max(ctx.pool.ring_depth(id) as u64);
                        }
                        Err((guard, _)) => {
                            // Ring full (or a barrier-window crash beat
                            // the sweep): take the reference back.
                            ctx.failed_ops += 1;
                            if let Ok(end) = ctx.pool.release_at(Holder::Exporter, guard, t) {
                                ctx.releases += 1;
                                t = end;
                            }
                        }
                    }
                }
                Err(_) => ctx.failed_ops += 1,
            }
        }
    }

    fn consumer_round(&mut self, at: SimTime, ctx: &mut PoolCtx) {
        let id = self.consumer.expect("consumer actor");
        let mut t = at;
        for _ in 0..2 {
            match ctx.pool.consume_at(id, t) {
                Ok((Some(guard), end)) => {
                    ctx.consumed += 1;
                    t = end;
                    self.held.push(guard);
                }
                Ok((None, end)) => {
                    t = end;
                    break;
                }
                Err(_) => {
                    // Crashed and swept: the guards this actor still
                    // carries were reclaimed; drop the stale handles.
                    ctx.failed_ops += 1;
                    self.held.clear();
                    return;
                }
            }
        }
        // Release the oldest hold, keep the rest in flight so a crash
        // always finds outstanding references.
        if self.held.len() > 1 || (self.round + 1 == self.rounds && !self.held.is_empty()) {
            let guard = self.held.remove(0);
            match ctx.pool.release_at(Holder::Consumer(id.0), guard, t) {
                Ok(_) => ctx.releases += 1,
                Err(_) => {
                    ctx.failed_ops += 1;
                    self.held.clear();
                }
            }
        }
    }
}

impl PdesActor<PoolCtx> for Actor {
    fn lane_key(&self) -> u64 {
        self.p.enclave.0 as u64
    }

    fn order_key(&self) -> u64 {
        self.order
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(grid_at(self.t0_ns, self.stride_ns, 0))
    }

    fn has_local(&self) -> bool {
        false
    }

    fn local(&mut self, _now: SimTime, _part: &mut LanePart<'_>) {}

    fn barrier(&mut self, now: SimTime, shared: &mut PoolCtx) -> Option<SimTime> {
        if self.consumer.is_none() {
            self.producer_round(now, shared);
        } else {
            self.consumer_round(now, shared);
        }
        self.round += 1;
        (self.round < self.rounds).then(|| grid_at(self.t0_ns, self.stride_ns, self.round))
    }
}

fn pool_err(e: PoolError) -> XememError {
    match e {
        PoolError::Sys(e) => e,
        other => panic!("pool setup failed deterministically: {other}"),
    }
}

/// Run one unit: `consumers` Kitten enclaves against one exported
/// pool, with a crash sweep on multi-consumer units. `seed` must
/// already be split per unit; `lanes` picks the PDES lane count (1 =
/// the reference schedule, which every other count replays bit for
/// bit).
pub fn run_unit(
    unit: usize,
    consumers: usize,
    seed: u64,
    rounds: u64,
    lanes: usize,
    tracer: &TraceHandle,
) -> Result<PoolRow, XememError> {
    let capacity = 4 * consumers as u32;
    let mut rng = SimRng::seed_from_u64(seed);

    // One pool-consumer crash on multi-consumer units, landing in the
    // middle of the grid; single-consumer units stay crash-free so the
    // sweep axis keeps a clean baseline.
    let mut plan = FaultPlan::new().pool_capacity(capacity as usize);
    if consumers >= 2 {
        let at = rng.uniform_u64(CRASH_EARLIEST_NS, CRASH_LATEST_NS);
        let slot = rng.uniform_u64(1, (consumers + 1) as u64) as usize;
        let pool_slot = rng.uniform_u64(0, u64::from(capacity)) as usize;
        plan = plan.pool_consumer_crash(SimTime::from_nanos(at), slot, pool_slot);
    }
    plan.validate(consumers + 1, 1).expect("well-formed plan");

    let mut b = SystemBuilder::new().linux_management("linux", 4, 256 * MIB);
    for i in 0..consumers {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 64 * MIB);
    }
    let mut sys = b
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()?;

    let producer = sys.spawn_process(EnclaveRef(0), 64 * MIB)?;
    let t_start = sys.clock().now();
    let (mut pool, _t) = BufferPool::create_at(
        &mut sys,
        producer,
        capacity,
        SLOT_BYTES,
        Some("pool"),
        RING_CAP,
        t_start,
    )
    .map_err(pool_err)?;

    let stride_ns = HORIZON_NS / rounds;
    let mut actors: Vec<Actor> = Vec::new();
    for c in 0..consumers {
        let p = sys.spawn_process(EnclaveRef(1 + c), 2 * MIB)?;
        // Anchor every join at the (still early) clock rather than a
        // chained detached timestamp: setup must finish before the
        // crash window opens.
        let join_at = sys.clock().now();
        let (id, _end) = pool.join_at(&mut sys, p, join_at).map_err(pool_err)?;
        actors.push(Actor {
            order: 1 + c as u64,
            p,
            consumer: Some(id),
            held: Vec::new(),
            round: 0,
            rounds,
            t0_ns: 0, // patched below once setup is done
            stride_ns,
            n_consumers: consumers,
        });
    }
    let t0_ns = sys.clock().now().as_nanos();
    for a in &mut actors {
        a.t0_ns = t0_ns;
    }
    actors.insert(
        0,
        Actor {
            order: 0,
            p: producer,
            consumer: None,
            held: Vec::new(),
            round: 0,
            rounds,
            t0_ns,
            stride_ns,
            n_consumers: consumers,
        },
    );

    let lookahead = sys.pdes_lookahead();
    let mut ctx = PoolCtx {
        sys,
        pool,
        acquires: 0,
        releases: 0,
        published: 0,
        consumed: 0,
        swept: 0,
        failed_ops: 0,
        ring_peak: 0,
    };
    run_lanes(&PdesConfig::new(lanes, lookahead), &mut actors, &mut ctx);
    let PoolCtx {
        mut sys,
        mut pool,
        acquires,
        mut releases,
        published,
        mut consumed,
        mut swept,
        mut failed_ops,
        ring_peak,
    } = ctx;

    // Drain the rest of the schedule, then the end-of-run protocol:
    // one final sweep for any crash that fired after the last producer
    // barrier, live consumers release holds and drain rings, and the
    // leak oracle must pass.
    let target = SimTime::from_nanos(t0_ns + HORIZON_NS + 1);
    if sys.clock().now() < target {
        sys.clock().advance_to(target);
    }
    sys.deliver_pending_faults();
    let mut t = sys.clock().now();
    let (n, end) = pool.sweep_at(&mut sys, t);
    swept += n;
    t = t.max(end);
    for actor in &mut actors {
        let Some(id) = actor.consumer else { continue };
        if !pool.consumer_alive(id) {
            actor.held.clear();
            continue;
        }
        for guard in actor.held.drain(..) {
            match pool.release_at(Holder::Consumer(id.0), guard, t) {
                Ok(end) => {
                    releases += 1;
                    t = end;
                }
                Err(_) => failed_ops += 1,
            }
        }
        loop {
            match pool.consume_at(id, t) {
                Ok((Some(guard), end)) => {
                    consumed += 1;
                    t = end;
                    let end = pool
                        .release_at(Holder::Consumer(id.0), guard, t)
                        .expect("release drained entry");
                    releases += 1;
                    t = end;
                }
                Ok((None, end)) => {
                    t = end;
                    break;
                }
                Err(_) => {
                    failed_ops += 1;
                    break;
                }
            }
        }
    }
    pool.leak_check()
        .unwrap_or_else(|e| panic!("unit {unit}: pool leak check failed: {e}"));
    if consumers >= 2 {
        assert!(
            (0..consumers).any(|c| !pool.consumer_alive(ConsumerId(c))),
            "unit {unit}: the scheduled consumer crash never landed"
        );
        assert!(swept > 0, "unit {unit}: crash swept no references");
    }

    let ok_ops = acquires + releases + published + consumed;
    Ok(PoolRow {
        unit,
        enclaves: consumers + 1,
        acquires,
        releases,
        published,
        consumed,
        swept,
        failed_ops,
        ring_peak,
        ops_per_vms: ok_ops * 1_000_000 / HORIZON_NS,
        clock_ns: sys.clock().now().as_nanos(),
    })
}

/// Run the whole sweep through a parallel session whose per-run
/// tracers are conservation-audited by the caller's epilogue. `lanes`
/// is the intra-unit PDES lane count; rows are bit-identical at any
/// value.
pub fn run(
    session: &mut crate::driver::ParSession,
    smoke: bool,
    lanes: usize,
) -> Result<Vec<PoolRow>, XememError> {
    let (axis, rounds) = geometry(smoke);
    session.run(axis.len(), |i, tracer| {
        let _scope = tracer.scope();
        run_unit(
            i,
            axis[i],
            xemem_sim::split_seed(ROOT_SEED, i as u64),
            rounds,
            lanes,
            tracer,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem::TraceHandle;

    /// One multi-consumer unit (crash included) run at lanes {2, 5, 8}
    /// reproduces the lanes=1 reference row bit for bit.
    #[test]
    fn lanes_replay_the_reference_unit_bit_for_bit() {
        let seed = xemem_sim::split_seed(ROOT_SEED, 2);
        let reference = run_unit(2, 4, seed, 10, 1, &TraceHandle::disabled()).unwrap();
        assert!(reference.acquires > 0);
        assert!(reference.swept > 0, "the crash must sweep references");
        for lanes in [2usize, 5, 8] {
            let row = run_unit(2, 4, seed, 10, lanes, &TraceHandle::disabled()).unwrap();
            assert_eq!(row, reference, "lanes={lanes} diverged from the reference");
        }
    }
}
