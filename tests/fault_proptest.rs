//! Property test: no random fault schedule can leak or double-free
//! physical frames, and the whole simulation — faults included — is a
//! deterministic function of the seed.
//!
//! Each case derives a [`FaultPlan`] from the seed (enclave crashes,
//! process kills, name-server outages, lossy-link windows), drives a
//! fixed make/get/attach/read/remove/detach workload through it while
//! virtual time marches across the fault horizon, then gracefully exits
//! every process that is still reachable. Afterwards every surviving
//! enclave's allocator must hold exactly its pre-workload frame count:
//! fewer means a leak, more means a double-free.

use proptest::prelude::*;
use xemem::trace_layer::MetricsSnapshot;
use xemem::{EnclaveRef, FaultPlan, ProcessRef, SimTime, SystemBuilder, TraceHandle, XememError};
use xemem_sim::SimRng;

const MIB: u64 = 1 << 20;
/// Virtual-time span the random fault schedules are spread over; the
/// workload steps its clock across it so faults interleave with ops.
const HORIZON: u64 = 1_000_000; // 1 ms
const ROUNDS: u64 = 4;

/// Everything observable about one run; two runs with equal seeds must
/// produce equal outcomes.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Per-enclave free-frame count at the end (None for dead enclaves,
    /// whose partitions are retired wholesale).
    free_frames: Vec<Option<u64>>,
    outstanding_loans: usize,
    clock_ns: u64,
    /// Every counter, op count and histogram of the run's tracer: the
    /// failure and teardown history, typed.
    metrics: Option<MetricsSnapshot>,
    ok_ops: u32,
    failed_ops: u32,
}

/// An enabled tracer whose rings are kept tiny: the outcomes compare
/// its metrics, which are exact whatever the ring size.
fn metrics_tracer() -> TraceHandle {
    TraceHandle::with_capacity(64, 1)
}

fn run_schedule(seed: u64) -> Outcome {
    run_schedule_with(seed, false)
}

/// Like [`run_schedule`] but on a 4-enclave topology with the name
/// service sharded 2 × 2 and the fault generator aiming outages at
/// individual shards, plus a stale-lease oracle: once a named segment's
/// removal has completed at virtual time T, no later successful lookup
/// may ever return that segid again (leases are revoked eagerly and
/// epoch-fenced across failovers, so the cache can never outlive the
/// registration).
fn run_schedule_sharded(seed: u64) -> Outcome {
    run_schedule_with(seed, true)
}

fn run_schedule_with(seed: u64, sharded: bool) -> Outcome {
    let mut rng = SimRng::seed_from_u64(seed);
    let (n_slots, n_shards) = if sharded { (4, 2) } else { (3, 1) };
    let plan = FaultPlan::random_sharded(
        &mut rng,
        SimTime::from_nanos(HORIZON),
        n_slots,
        4,
        if sharded { 8 } else { 6 },
        n_shards,
    );
    let mut b = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .kitten_cokernel("kitten1", 1, 128 * MIB);
    if sharded {
        b = b
            .kitten_cokernel("kitten2", 1, 128 * MIB)
            .name_service_shards(2, 2);
    }
    let tracer = metrics_tracer();
    let mut sys = b
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()
        .unwrap();
    let names: &[&str] = if sharded {
        &["linux", "kitten0", "kitten1", "kitten2"]
    } else {
        &["linux", "kitten0", "kitten1"]
    };
    let encs: Vec<EnclaveRef> = names
        .iter()
        .map(|n| sys.enclave_by_name(n).unwrap())
        .collect();
    let baselines: Vec<u64> = encs
        .iter()
        .map(|&e| sys.free_frames_of(e).unwrap())
        .collect();

    let mut ok_ops = 0u32;
    let mut failed_ops = 0u32;
    // Every operation tolerates failure: injected crashes and outages
    // make arbitrary ops fail, and that is the point of the test.
    macro_rules! attempt {
        ($r:expr) => {
            match $r {
                Ok(v) => {
                    ok_ops += 1;
                    Some(v)
                }
                Err(_e) => {
                    failed_ops += 1;
                    None
                }
            }
        };
    }

    let mut procs: Vec<Vec<ProcessRef>> = Vec::new();
    for &e in &encs {
        let mut v = Vec::new();
        for _ in 0..2 {
            if let Some(p) = attempt!(sys.spawn_process(e, 16 * MIB)) {
                v.push(p);
            }
        }
        procs.push(v);
    }

    let mut attached: Vec<(ProcessRef, xemem::VirtAddr)> = Vec::new();
    let mut exported: Vec<(ProcessRef, xemem::Segid, String)> = Vec::new();
    // Stale-lease oracle: names whose removal *completed*, with the
    // segid they used to bind. Names are never re-registered, so any
    // later lookup that succeeds with the old segid is a lease served
    // past its revocation.
    let mut removed: Vec<(String, xemem::Segid)> = Vec::new();
    for round in 0..ROUNDS {
        // Each enclave's first process exports a named segment...
        for (e, ps) in procs.clone().into_iter().enumerate() {
            let Some(&exporter) = ps.first() else {
                continue;
            };
            if let Some(buf) = attempt!(sys.alloc_buffer(exporter, MIB)) {
                attempt!(sys.write(exporter, buf, b"payload"));
                let name = format!("seg:{e}:{round}");
                if let Some(segid) = attempt!(sys.xpmem_make(exporter, buf, MIB, Some(&name))) {
                    exported.push((exporter, segid, name));
                }
            }
        }
        // ...and each enclave's second process attaches to a neighbor's.
        for (e, ps) in procs.clone().into_iter().enumerate() {
            let Some(&consumer) = ps.get(1) else { continue };
            let target = (e + 1) % encs.len();
            let name = format!("seg:{target}:{round}");
            let Some(segid) = attempt!(sys.xpmem_search(consumer, &name)) else {
                continue;
            };
            let Some(apid) = attempt!(sys.xpmem_get(consumer, segid)) else {
                continue;
            };
            if let Some(va) = attempt!(sys.xpmem_attach(consumer, apid, 0, MIB)) {
                let mut b = [0u8; 7];
                attempt!(sys.read(consumer, va, &mut b));
                attached.push((consumer, va));
            }
            // Re-probe a previously removed name from every consumer:
            // whatever the fault schedule did to the shard in between
            // (outage, failover, nothing), the old binding must never
            // come back.
            if let Some((gone_name, gone_segid)) = removed.get(e % removed.len().max(1)) {
                if let Some(found) = attempt!(sys.xpmem_search(consumer, gone_name)) {
                    assert_ne!(
                        found, *gone_segid,
                        "lookup of {gone_name:?} returned a segid revoked before \
                         the lookup's virtual time (seed {seed})"
                    );
                }
            }
        }
        // Churn: periodically detach everything and withdraw exports, so
        // faults land on every lifecycle stage across rounds.
        if round % 2 == 1 {
            for (p, va) in attached.drain(..) {
                attempt!(sys.xpmem_detach(p, va));
            }
        }
        if round == 2 {
            for (p, segid, name) in exported.drain(..) {
                if attempt!(sys.xpmem_remove(p, segid)).is_some() {
                    removed.push((name, segid));
                }
            }
        }
        // March virtual time into the next slice of the fault schedule.
        let target = SimTime::from_nanos((round + 1) * HORIZON / ROUNDS);
        if sys.clock().now() < target {
            sys.clock().advance_to(target);
        }
    }

    // Step past the horizon so the next operations deliver any faults
    // still queued, then gracefully retire every process we spawned.
    sys.clock().advance_to(SimTime::from_nanos(HORIZON + 1));
    for ps in procs.clone() {
        for p in ps {
            attempt!(sys.exit_process(p));
        }
    }

    // The invariant: live enclaves are back at their pre-workload frame
    // counts — nothing leaked, nothing returned twice — and every frame
    // loan opened by a crash has drained.
    let free_frames: Vec<Option<u64>> = encs
        .iter()
        .map(|&e| {
            if sys.enclave_alive(e) {
                sys.free_frames_of(e)
            } else {
                None
            }
        })
        .collect();
    for (i, f) in free_frames.iter().enumerate() {
        if let Some(f) = f {
            assert_eq!(
                *f, baselines[i],
                "enclave {} leaked or double-freed frames under seed {seed}",
                names[i]
            );
        }
    }
    assert_eq!(
        sys.outstanding_loans(),
        0,
        "unsettled frame loans under seed {seed}"
    );

    Outcome {
        free_frames,
        outstanding_loans: sys.outstanding_loans(),
        clock_ns: sys.clock().now().as_nanos(),
        metrics: tracer.metrics_snapshot(),
        ok_ops,
        failed_ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_fault_schedule_leaks_frames_and_runs_are_deterministic(seed in any::<u64>()) {
        let first = run_schedule(seed);
        // Re-running the identical seed rebuilds the system from scratch
        // and must reproduce the run exactly: same clock, same metrics,
        // same op outcomes, same allocator states.
        let second = run_schedule(seed);
        prop_assert_eq!(first, second);
    }

    /// The same property over the sharded name service, with the fault
    /// generator aiming outages at individual shards and crashes free to
    /// hit replica slots (triggering failovers): no schedule leaks
    /// frames, no lookup ever resurrects a revoked lease (the oracle
    /// inside the run asserts it), and runs stay seed-deterministic.
    #[test]
    fn no_sharded_fault_schedule_leaks_frames_or_serves_revoked_leases(seed in any::<u64>()) {
        let first = run_schedule_sharded(seed);
        let second = run_schedule_sharded(seed);
        prop_assert_eq!(first, second);
    }
}

/// The run driver shards schedules across worker threads without
/// changing any outcome: 64 split-seeded schedules at `--jobs 1` and
/// `--jobs 8` are observationally identical, and each unit's seed is a
/// pure function of the root seed and the unit index — never of which
/// worker ran it or in what order.
#[test]
fn driver_sharding_preserves_fault_schedule_outcomes() {
    use xemem_sim::{split_seed, RunDriver, RunPlan};
    const SCHEDULES: usize = 64;
    const ROOT: u64 = 0xFA07_5EED;
    let run_all = |jobs: usize| {
        RunDriver::new(RunPlan::new(SCHEDULES).with_jobs(jobs).with_seed(ROOT)).execute(|ctx| {
            assert_eq!(ctx.seed, split_seed(ROOT, ctx.index as u64));
            run_schedule(ctx.seed)
        })
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(serial, parallel, "sharded schedules diverged from serial");
}

/// Driver determinism over the sharded name service: shard outages,
/// failovers and lease revocations are all virtual-time machinery, so
/// worker count still cannot leak into any outcome.
#[test]
fn driver_sharding_preserves_sharded_name_service_outcomes() {
    use xemem_sim::{split_seed, RunDriver, RunPlan};
    const SCHEDULES: usize = 32;
    const ROOT: u64 = 0x5AD_5EED;
    let run_all = |jobs: usize| {
        RunDriver::new(RunPlan::new(SCHEDULES).with_jobs(jobs).with_seed(ROOT)).execute(|ctx| {
            assert_eq!(ctx.seed, split_seed(ROOT, ctx.index as u64));
            run_schedule_sharded(ctx.seed)
        })
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(serial, parallel, "sharded schedules diverged from serial");
}

/// A schedule-free control: with no injector at all the same workload
/// also returns every frame (guards the harness itself against leaks).
#[test]
fn control_run_without_faults_is_leak_free() {
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let base_l = sys.free_frames_of(linux).unwrap();
    let base_k = sys.free_frames_of(kitten).unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some("ctl")).unwrap();
    let apid = sys.xpmem_get(consumer, segid).unwrap();
    let va = sys.xpmem_attach(consumer, apid, 0, MIB).unwrap();
    let mut b = [0u8; 1];
    sys.read(consumer, va, &mut b).unwrap();
    sys.exit_process(consumer).unwrap();
    sys.exit_process(exporter).unwrap();
    assert_eq!(sys.free_frames_of(linux).unwrap(), base_l);
    assert_eq!(sys.free_frames_of(kitten).unwrap(), base_k);
    assert_eq!(sys.outstanding_loans(), 0);
    assert!(matches!(
        sys.xpmem_search(consumer, "ctl"),
        Err(XememError::UnknownName(_) | XememError::Kernel(_))
    ));
}

// ---------------------------------------------------------------------
// Pool-leak oracle: random pool-consumer crash schedules
// ---------------------------------------------------------------------

/// Observable outcome of one pool crash schedule; equal seeds must
/// reproduce it exactly, and every schedule must end leak-free.
#[derive(Debug, PartialEq, Eq)]
struct PoolOutcome {
    swept: u64,
    consumers_dead: Vec<bool>,
    ok_ops: u32,
    failed_ops: u32,
    clock_ns: u64,
    metrics: Option<MetricsSnapshot>,
}

/// A serial producer/consumer pool workload under a random
/// pool-consumer crash schedule. The oracle: after the final sweep and
/// drain, `leak_check()` holds (no slot leaked, none double-freed) —
/// crashed consumers' references were reclaimed exactly once.
fn run_pool_schedule(seed: u64) -> PoolOutcome {
    use xemem_pool::{BufferPool, ConsumerId, Holder, SlotGuard};

    const CONSUMERS: usize = 3;
    const CAPACITY: u32 = 12;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new().pool_capacity(CAPACITY as usize);
    for _ in 0..rng.uniform_u64(1, 3) {
        let at = rng.uniform_u64(HORIZON / 2, HORIZON);
        let slot = rng.uniform_u64(1, (CONSUMERS + 1) as u64) as usize;
        let pool_slot = rng.uniform_u64(0, u64::from(CAPACITY)) as usize;
        plan = plan.pool_consumer_crash(SimTime::from_nanos(at), slot, pool_slot);
    }
    plan.validate(CONSUMERS + 1, 1).expect("well-formed plan");

    let mut b = SystemBuilder::new().linux_management("linux", 4, 256 * MIB);
    for i in 0..CONSUMERS {
        b = b.kitten_cokernel(&format!("pk{i}"), 1, 64 * MIB);
    }
    let tracer = metrics_tracer();
    let mut sys = b
        .with_fault_plan(plan, seed)
        .with_tracer(tracer.clone())
        .build()
        .unwrap();
    let mut ok_ops = 0u32;
    let mut failed_ops = 0u32;

    let producer = sys.spawn_process(EnclaveRef(0), 32 * MIB).unwrap();
    let t0 = sys.clock().now();
    let (mut pool, _) =
        BufferPool::create_at(&mut sys, producer, CAPACITY, 4096, Some("pp"), 4, t0).unwrap();
    let mut ids: Vec<ConsumerId> = Vec::new();
    for c in 0..CONSUMERS {
        let p = sys.spawn_process(EnclaveRef(1 + c), 2 * MIB).unwrap();
        let at = sys.clock().now();
        let (id, _) = pool.join_at(&mut sys, p, at).unwrap();
        ids.push(id);
    }

    // March virtual time across the fault horizon in rounds; each round
    // publishes one slot per live consumer and consumers hold/release.
    let t0_ns = sys.clock().now().as_nanos();
    let mut held: Vec<Vec<SlotGuard>> = (0..CONSUMERS).map(|_| Vec::new()).collect();
    let mut swept = 0u64;
    for round in 0..ROUNDS * 2 {
        let now = SimTime::from_nanos(t0_ns + (round + 1) * HORIZON / (ROUNDS * 2));
        sys.clock().advance_to(now);
        sys.deliver_pending_faults();
        let (n, _) = pool.sweep_at(&mut sys, now);
        swept += n;
        let mut t = now;
        for (c, &id) in ids.iter().enumerate() {
            if !pool.consumer_alive(id) {
                held[c].clear();
                continue;
            }
            match pool.acquire_at(t) {
                Ok((g, end)) => {
                    ok_ops += 1;
                    t = end;
                    match pool.publish_at(id, g, t) {
                        Ok(end) => {
                            ok_ops += 1;
                            t = end;
                        }
                        Err((g, _)) => {
                            failed_ops += 1;
                            if let Ok(end) = pool.release_at(Holder::Exporter, g, t) {
                                t = end;
                            }
                        }
                    }
                }
                Err(_) => failed_ops += 1,
            }
            match pool.consume_at(id, t) {
                Ok((Some(g), end)) => {
                    ok_ops += 1;
                    t = end;
                    held[c].push(g);
                }
                Ok((None, end)) => t = end,
                Err(_) => failed_ops += 1,
            }
            if held[c].len() > 1 {
                let g = held[c].remove(0);
                match pool.release_at(Holder::Consumer(id.0), g, t) {
                    Ok(end) => {
                        ok_ops += 1;
                        t = end;
                    }
                    Err(_) => {
                        failed_ops += 1;
                        held[c].clear();
                    }
                }
            }
        }
    }

    // Drain: deliver any stragglers, final sweep, then live consumers
    // pop and release everything still in flight.
    sys.clock()
        .advance_to(SimTime::from_nanos(t0_ns + 2 * HORIZON));
    sys.deliver_pending_faults();
    let mut t = sys.clock().now();
    let (n, end) = pool.sweep_at(&mut sys, t);
    swept += n;
    t = t.max(end);
    for (c, &id) in ids.iter().enumerate() {
        if !pool.consumer_alive(id) {
            held[c].clear();
            continue;
        }
        for g in held[c].drain(..) {
            t = pool.release_at(Holder::Consumer(id.0), g, t).unwrap();
            ok_ops += 1;
        }
        loop {
            match pool.consume_at(id, t) {
                Ok((Some(g), end)) => {
                    t = pool.release_at(Holder::Consumer(id.0), g, end).unwrap();
                    ok_ops += 1;
                }
                Ok((None, end)) => {
                    t = end;
                    break;
                }
                Err(_) => unreachable!("live consumer refused a drain pop"),
            }
        }
    }

    // The pool-leak oracle: every slot back on the free list, zero refs
    // outstanding, live consumers fully drained.
    pool.leak_check().expect("pool leak oracle");

    PoolOutcome {
        swept,
        consumers_dead: ids.iter().map(|&id| !pool.consumer_alive(id)).collect(),
        ok_ops,
        failed_ops,
        clock_ns: sys.clock().now().as_nanos(),
        metrics: tracer.metrics_snapshot(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No pool-consumer crash schedule can leak a slot or reclaim one
    /// twice, and pool runs are a deterministic function of the seed.
    #[test]
    fn no_pool_crash_schedule_leaks_slots_and_runs_are_deterministic(seed in any::<u64>()) {
        let first = run_pool_schedule(seed);
        let second = run_pool_schedule(seed);
        prop_assert_eq!(first, second);
    }
}
