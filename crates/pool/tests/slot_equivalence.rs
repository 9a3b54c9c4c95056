//! Property test: the buffer-pool service layer is *observationally
//! equivalent* across PDES shapes, and crash sweeps reclaim a crashed
//! consumer's slots **exactly once** — no leak, no double-free.
//!
//! Each of the 256 cases derives a deterministic pool-consumer crash
//! schedule from the seed and drives a producer/consumer pool workload
//! (exporter acquiring + publishing into per-consumer rings, consumers
//! popping, holding across rounds, and releasing) through
//! [`xemem_sim::pdes::run_lanes`] at every combination of lanes {1, 8}
//! × workers {1, 4}. The `lanes=1, workers=1` run is the serial
//! reference; every other configuration must reproduce it exactly:
//!
//! * equal results — op tallies, slots swept, final free-slot count,
//!   per-consumer liveness, final clock;
//! * bit-identical metrics snapshots — every counter and histogram,
//!   including `pool_acquires` / `pool_releases` / `pool_slots_swept`
//!   and the `pool_ring_depth` histogram;
//! * equal conservation sums (`audit()` additionally asserts leaves
//!   tile their roots exactly).
//!
//! The exactly-once oracle is structural *and* counted: the pool's own
//! sweep asserts generation/refcount sanity (a double-free would trip
//! them), `leak_check()` proves every slot returned to the free list,
//! and the swept tally must equal the refs the dead consumers held.

use proptest::prelude::*;
use xemem::trace_layer::{ConservationSums, MetricsSnapshot};
use xemem::{EnclaveRef, FaultPlan, LanePart, ProcessRef, System, SystemBuilder, TraceHandle};
use xemem_pool::{BufferPool, ConsumerId, Holder, SlotGuard};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::{SimRng, SimTime};

const MIB: u64 = 1 << 20;
/// Virtual-time span of each crash schedule.
const HORIZON_NS: u64 = 1_000_000; // 1 ms
/// Barrier rounds per actor (stride far above the PDES lookahead).
const ROUNDS: u64 = 8;
/// Consumer enclaves (slots 1..=4; linux is slot 0).
const CONSUMERS: usize = 4;
/// Pool capacity in slots (kept small: the segment attach is charged
/// per page, and setup must complete before the crash window opens).
const CAPACITY: u32 = 16;
/// Per-consumer ring capacity.
const RING_CAP: usize = 8;
/// Crash window (absolute virtual time). Setup — spawns, pool export,
/// four joins — finishes well before this opens, and the workload grid
/// (anchored at the post-setup clock) extends well past it closing.
const CRASH_EARLIEST_NS: u64 = 600_000;
const CRASH_LATEST_NS: u64 = 900_000;

/// Everything observable about one run. Two runs of the same seed at
/// any `(lanes, workers)` must produce equal outcomes.
#[derive(Debug, PartialEq)]
struct Outcome {
    ok_ops: u64,
    failed_ops: u64,
    published: u64,
    consumed: u64,
    swept: u64,
    free_slots: usize,
    consumers_alive: Vec<bool>,
    clock_ns: u64,
    metrics: Option<MetricsSnapshot>,
    sums: ConservationSums,
}

/// Shared state the actors coordinate through at barriers: the system,
/// the pool, and the run tallies.
struct Shared {
    sys: System,
    pool: BufferPool,
    ok_ops: u64,
    failed_ops: u64,
    published: u64,
    consumed: u64,
    swept: u64,
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

/// Producer (order 0): sweeps crash notices, then acquires and
/// publishes one slot per live consumer per round. Consumers (order
/// 1..): pop up to two entries, release the older of their held slots,
/// and carry the rest across rounds so a crash always finds holds.
struct Actor {
    order: u64,
    p: ProcessRef,
    /// `Some(id)` for consumers; `None` marks the producer.
    consumer: Option<ConsumerId>,
    held: Vec<SlotGuard>,
    round: u64,
    t0_ns: u64,
}

impl Actor {
    fn producer_round(&mut self, at: SimTime, ctx: &mut Shared) {
        let (n, _t) = ctx.pool.sweep_at(&mut ctx.sys, at);
        ctx.swept += n;
        let mut t = at;
        for c in 0..CONSUMERS {
            let id = ConsumerId(c);
            if !ctx.pool.consumer_alive(id) {
                continue;
            }
            match ctx.pool.acquire_at(t) {
                Ok((guard, end)) => {
                    ctx.ok_ops += 1;
                    t = end;
                    match ctx.pool.publish_at(id, guard, t) {
                        Ok(end) => {
                            ctx.ok_ops += 1;
                            ctx.published += 1;
                            t = end;
                        }
                        Err((guard, _)) => {
                            // Ring full (or a barrier-window crash beat
                            // the sweep): take the reference back.
                            ctx.failed_ops += 1;
                            if let Ok(end) = ctx.pool.release_at(Holder::Exporter, guard, t) {
                                t = end;
                            }
                        }
                    }
                }
                Err(_) => ctx.failed_ops += 1,
            }
        }
    }

    fn consumer_round(&mut self, at: SimTime, ctx: &mut Shared) {
        let id = self.consumer.expect("consumer actor");
        let mut t = at;
        // Pop up to two visible entries.
        for _ in 0..2 {
            match ctx.pool.consume_at(id, t) {
                Ok((Some(guard), end)) => {
                    ctx.ok_ops += 1;
                    ctx.consumed += 1;
                    t = end;
                    self.held.push(guard);
                }
                Ok((None, end)) => {
                    ctx.ok_ops += 1;
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
        // Release the oldest hold, keep the rest in flight.
        if self.held.len() > 1 || (self.round + 1 == ROUNDS && !self.held.is_empty()) {
            let guard = self.held.remove(0);
            match ctx.pool.release_at(Holder::Consumer(id.0), guard, t) {
                Ok(_) => ctx.ok_ops += 1,
                Err(_) => {
                    ctx.failed_ops += 1;
                    self.held.clear();
                }
            }
        }
    }
}

impl PdesActor<Shared> for Actor {
    fn lane_key(&self) -> u64 {
        self.p.enclave.0 as u64
    }

    fn order_key(&self) -> u64 {
        self.order
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(grid_at(self.t0_ns, 0))
    }

    fn has_local(&self) -> bool {
        false
    }

    fn local(&mut self, _now: SimTime, _part: &mut LanePart<'_>) {}

    fn barrier(&mut self, now: SimTime, shared: &mut Shared) -> Option<SimTime> {
        if self.consumer.is_none() {
            self.producer_round(now, shared);
        } else {
            self.consumer_round(now, shared);
        }
        self.round += 1;
        (self.round < ROUNDS).then(|| grid_at(self.t0_ns, self.round))
    }
}

/// Build the topology, derive the crash schedule from `seed`, run the
/// pool workload under `(lanes, workers)`, and collect the outcome.
fn run_config(seed: u64, lanes: usize, workers: usize) -> Outcome {
    let mut rng = SimRng::seed_from_u64(seed);
    // One or two pool-consumer crashes in the middle half of the run.
    let mut plan = FaultPlan::new().pool_capacity(CAPACITY as usize);
    let n_crashes = rng.uniform_u64(1, 3);
    for _ in 0..n_crashes {
        let at = rng.uniform_u64(CRASH_EARLIEST_NS, CRASH_LATEST_NS);
        let slot = rng.uniform_u64(1, (CONSUMERS + 1) as u64) as usize;
        let pool_slot = rng.uniform_u64(0, u64::from(CAPACITY)) as usize;
        plan = plan.pool_consumer_crash(SimTime::from_nanos(at), slot, pool_slot);
    }
    plan.validate(CONSUMERS + 1, 1).expect("well-formed plan");

    let tracer = TraceHandle::enabled();
    let mut b = SystemBuilder::new().linux_management("linux", 4, 256 * MIB);
    for i in 0..CONSUMERS {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 64 * MIB);
    }
    let mut sys = b
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()
        .unwrap();

    let producer = sys.spawn_process(EnclaveRef(0), 64 * MIB).unwrap();
    let t_start = sys.clock().now();
    let (mut pool, _t) = BufferPool::create_at(
        &mut sys,
        producer,
        CAPACITY,
        4 * 1024,
        Some("eqpool"),
        RING_CAP,
        t_start,
    )
    .unwrap();
    let mut actors: Vec<Actor> = Vec::new();
    let t0_ns = sys.clock().now().as_nanos();
    actors.push(Actor {
        order: 0,
        p: producer,
        consumer: None,
        held: Vec::new(),
        round: 0,
        t0_ns,
    });
    for c in 0..CONSUMERS {
        let p = sys.spawn_process(EnclaveRef(1 + c), 2 * MIB).unwrap();
        // Anchor every join at the (still early) clock rather than a
        // chained detached timestamp: setup must finish before the
        // schedule's first crash window opens.
        let join_at = sys.clock().now();
        let (id, _end) = pool.join_at(&mut sys, p, join_at).unwrap();
        actors.push(Actor {
            order: 1 + c as u64,
            p,
            consumer: Some(id),
            held: Vec::new(),
            round: 0,
            t0_ns,
        });
    }

    let lookahead = sys.pdes_lookahead();
    let mut shared = Shared {
        sys,
        pool,
        ok_ops: 0,
        failed_ops: 0,
        published: 0,
        consumed: 0,
        swept: 0,
    };
    let cfg = PdesConfig::new(lanes, lookahead).with_workers(workers);
    run_lanes(&cfg, &mut actors, &mut shared);
    let Shared {
        mut sys,
        mut pool,
        mut ok_ops,
        mut failed_ops,
        published,
        consumed,
        mut swept,
        ..
    } = shared;

    // Drain the rest of the schedule, then run the end-of-run protocol:
    // live consumers pop + release everything still in flight, stale
    // actor holds are released, and one final sweep collects any crash
    // that fired after the last producer barrier.
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
                    ok_ops += 1;
                    t = end;
                }
                Err(_) => failed_ops += 1,
            }
        }
        loop {
            match pool.consume_at(id, t) {
                Ok((Some(guard), end)) => {
                    ok_ops += 1;
                    t = end;
                    let end = pool
                        .release_at(Holder::Consumer(id.0), guard, t)
                        .expect("release drained entry");
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
    // The leak oracle: every slot is back on the free list, refs all
    // zero, live consumers fully drained.
    pool.leak_check().expect("no slot leaks at end of run");

    let consumers_alive = (0..CONSUMERS)
        .map(|c| pool.consumer_alive(ConsumerId(c)))
        .collect();
    Outcome {
        ok_ops,
        failed_ops,
        published,
        consumed,
        swept,
        free_slots: pool.free_slots(),
        consumers_alive,
        clock_ns: sys.clock().now().as_nanos(),
        metrics: tracer.metrics_snapshot(),
        sums: tracer.audit().expect("conservation audit"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pool equivalence theorem, 256 random crash schedules strong:
    /// every `(lanes, workers)` combination replays the serial
    /// reference bit for bit, and no schedule leaks or double-frees a
    /// single slot.
    #[test]
    fn pool_runs_identically_across_jobs_and_lanes(seed in any::<u64>()) {
        let reference = run_config(seed, 1, 1);
        prop_assert!(reference.metrics.is_some(), "tracer must be live");
        prop_assert_eq!(reference.free_slots, CAPACITY as usize);
        for (lanes, workers) in [(1, 4), (8, 1), (8, 4)] {
            let got = run_config(seed, lanes, workers);
            prop_assert_eq!(
                &got, &reference,
                "lanes={} workers={} diverged from the serial reference under seed {}",
                lanes, workers, seed
            );
        }
    }
}

/// Sanity: across a handful of seeds, at least one schedule actually
/// kills a consumer mid-hold and sweeps references (the equivalence
/// theorem must not pass vacuously).
#[test]
fn crash_schedules_are_not_vacuous() {
    let mut any_swept = false;
    let mut any_dead = false;
    for seed in 0..8u64 {
        let out = run_config(seed, 1, 1);
        any_swept |= out.swept > 0;
        any_dead |= out.consumers_alive.iter().any(|alive| !alive);
        assert_eq!(out.free_slots, CAPACITY as usize, "seed {seed} leaked");
    }
    assert!(any_dead, "no schedule crashed a consumer");
    assert!(any_swept, "no schedule swept any reference");
}
