//! Conservation auditor: every charged nanosecond is attributed.
//!
//! The tracing layer's core invariant is *cost conservation*: the sum
//! of attributed leaf-span durations equals the sum of root (op) span
//! durations on each timeline, and the clock-timeline roots tile the
//! virtual time that actually elapsed on the system clock — exactly,
//! in integer nanoseconds, never approximately. These tests gate that
//! invariant over the figure workloads and over ≥64 seeded fault
//! schedules (the same schedule template as `fault_proptest.rs`, so
//! crashes, kills, outages and lossy links all land mid-workload), and
//! pin the zero-observer-effect property: a run with tracing disabled
//! produces bit-identical virtual time and figure outputs to a run
//! with tracing enabled.

use xemem::trace_layer::{merge_chrome_trace_json, merge_folded_stacks, Counter, MetricsSnapshot};
use xemem::{EnclaveRef, FaultPlan, ProcessRef, SimDuration, SimTime, SystemBuilder, TraceHandle};
use xemem_sim::{RunDriver, RunPlan, SimRng};

const MIB: u64 = 1 << 20;
const HORIZON: u64 = 1_000_000; // 1 ms
const ROUNDS: u64 = 4;
const SCHEDULES: u64 = 64;

/// A small tracer: the conservation sums are exact regardless of ring
/// capacity (overwritten spans stay counted), so tests keep the rings
/// small.
fn test_tracer() -> TraceHandle {
    TraceHandle::with_capacity(1024, 4)
}

/// What a schedule run leaves behind. Equality across tracing modes is
/// the observer-effect check.
#[derive(Debug, PartialEq, Eq)]
struct RunResult {
    clock_ns: u64,
    ok_ops: u32,
    failed_ops: u32,
}

/// Drive the `fault_proptest` workload template under `tracer`,
/// additionally summing the virtual time spent in *manual* clock
/// advances (idle marches across the fault horizon) — idle time is the
/// one component of elapsed time no operation pays for, so the clock
/// audit expects `elapsed - idle`.
fn run_schedule(seed: u64, tracer: &TraceHandle) -> (RunResult, SimDuration) {
    let mut rng = SimRng::seed_from_u64(seed);
    let plan = FaultPlan::random(&mut rng, SimTime::from_nanos(HORIZON), 3, 4, 6);
    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .kitten_cokernel("kitten1", 1, 128 * MIB)
        .with_fault_plan(plan, seed)
        .build()
        .unwrap();
    let encs: Vec<EnclaveRef> = ["linux", "kitten0", "kitten1"]
        .iter()
        .map(|n| sys.enclave_by_name(n).unwrap())
        .collect();

    let mut ok_ops = 0u32;
    let mut failed_ops = 0u32;
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

    let mut idle = SimDuration::ZERO;
    let mut march = |sys: &mut xemem::System, target: SimTime| {
        let now = sys.clock().now();
        if now < target {
            idle += target.duration_since(now);
            sys.clock().advance_to(target);
        }
    };

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
    let mut exported: Vec<(ProcessRef, xemem::Segid)> = Vec::new();
    for round in 0..ROUNDS {
        for (e, ps) in procs.clone().into_iter().enumerate() {
            let Some(&exporter) = ps.first() else {
                continue;
            };
            if let Some(buf) = attempt!(sys.alloc_buffer(exporter, MIB)) {
                attempt!(sys.write(exporter, buf, b"payload"));
                let name = format!("seg:{e}:{round}");
                if let Some(segid) = attempt!(sys.xpmem_make(exporter, buf, MIB, Some(&name))) {
                    exported.push((exporter, segid));
                }
            }
        }
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
        }
        if round % 2 == 1 {
            for (p, va) in attached.drain(..) {
                attempt!(sys.xpmem_detach(p, va));
            }
        }
        if round == 2 {
            for (p, segid) in exported.drain(..) {
                attempt!(sys.xpmem_remove(p, segid));
            }
        }
        march(
            &mut sys,
            SimTime::from_nanos((round + 1) * HORIZON / ROUNDS),
        );
    }

    march(&mut sys, SimTime::from_nanos(HORIZON + 1));
    for ps in procs.clone() {
        for p in ps {
            attempt!(sys.exit_process(p));
        }
    }

    let result = RunResult {
        clock_ns: sys.clock().now().as_nanos(),
        ok_ops,
        failed_ops,
    };
    (result, idle)
}

/// The tentpole gate: across 64 seeded fault schedules, every charged
/// nanosecond is attributed to exactly one leaf span, leaves tile their
/// op roots, and clock-timeline roots tile the non-idle elapsed time —
/// all exact. A disabled-tracing twin of every run must land on the
/// same virtual clock with the same op outcomes.
#[test]
fn sixty_four_fault_schedules_conserve_every_nanosecond() {
    // The schedules are independent units, so they run through the
    // parallel driver (each with its own tracer, indexed by unit); the
    // audits below read the tracers back in unit order.
    let tracers: Vec<TraceHandle> = (0..SCHEDULES).map(|_| test_tracer()).collect();
    let driver = RunDriver::new(RunPlan::new(SCHEDULES as usize));
    let outcomes = driver.execute(|ctx| {
        let seed = ctx.index as u64;
        let (traced, idle) = run_schedule(seed, &tracers[ctx.index]);
        let (plain, plain_idle) = run_schedule(seed, &TraceHandle::disabled());
        assert_eq!(
            traced, plain,
            "seed {seed}: tracing changed the simulation (observer effect)"
        );
        assert_eq!(idle, plain_idle, "seed {seed}: idle accounting diverged");
        (traced, idle)
    });
    for (seed, ((traced, idle), tracer)) in outcomes.iter().zip(&tracers).enumerate() {
        let elapsed = SimDuration::from_nanos(traced.clock_ns);
        let sums = tracer
            .audit_clock(elapsed - *idle)
            .unwrap_or_else(|e| panic!("seed {seed}: conservation audit failed: {e}"));
        assert!(
            sums.total_attributed_ns() > 0,
            "seed {seed}: schedule attributed no time at all"
        );
    }
}

/// Parallel-vs-serial observational equivalence: the same 64 fault
/// schedules — seeded by splitting one root seed per unit index, never
/// by scheduling — executed at `--jobs 1` and `--jobs 8` yield equal
/// run results, equal idle accounting, and bit-identical
/// metrics-registry snapshots from the per-run tracers.
#[test]
fn parallel_and_serial_schedules_are_observationally_equivalent() {
    const ROOT: u64 = 0xC0A5_EED5;
    let run_all = |jobs: usize| -> (Vec<(RunResult, SimDuration)>, Vec<MetricsSnapshot>) {
        let tracers: Vec<TraceHandle> = (0..SCHEDULES).map(|_| test_tracer()).collect();
        let driver = RunDriver::new(
            RunPlan::new(SCHEDULES as usize)
                .with_jobs(jobs)
                .with_seed(ROOT),
        );
        let results = driver.execute(|ctx| run_schedule(ctx.seed, &tracers[ctx.index]));
        let snapshots = tracers
            .iter()
            .map(|t| t.metrics_snapshot().expect("enabled tracer snapshots"))
            .collect();
        (results, snapshots)
    };
    let (serial_results, serial_snapshots) = run_all(1);
    let (parallel_results, parallel_snapshots) = run_all(8);
    assert_eq!(serial_results, parallel_results, "run results diverged");
    assert_eq!(
        serial_snapshots, parallel_snapshots,
        "metrics registries diverged"
    );
}

/// Figure workloads audit clean: fig5/fig6/table2 run their own
/// per-system `audit_scope` internally when handed an enabled tracer
/// (clock tiling included — the figure drivers never advance the clock
/// manually), and their outputs are bit-identical to untraced runs.
#[test]
fn figure_workloads_audit_and_match_untraced_runs() {
    let tracer = test_tracer();

    let traced = xemem_bench::fig5::run_with(&[4 * MIB], 3, &tracer).unwrap();
    let plain = xemem_bench::fig5::run(&[4 * MIB], 3).unwrap();
    for (t, p) in traced.iter().zip(&plain) {
        assert_eq!(t.attach_gbps.to_bits(), p.attach_gbps.to_bits());
        assert_eq!(t.attach_read_gbps.to_bits(), p.attach_read_gbps.to_bits());
        assert_eq!(t.rdma_gbps.to_bits(), p.rdma_gbps.to_bits());
    }

    let traced = xemem_bench::fig6::run_cell_with(2, 4 * MIB, 3, &tracer).unwrap();
    let plain = xemem_bench::fig6::run_cell(2, 4 * MIB, 3).unwrap();
    assert_eq!(traced.gbps.to_bits(), plain.gbps.to_bits());
    assert_eq!(traced.core0_wait, plain.core0_wait);

    let traced = xemem_bench::table2::run_with(8 * MIB, 2, &tracer).unwrap();
    let plain = xemem_bench::table2::run(8 * MIB, 2).unwrap();
    for (t, p) in traced.iter().zip(&plain) {
        assert_eq!(t.gbps.to_bits(), p.gbps.to_bits());
        assert_eq!(
            t.gbps_without_rb.map(f64::to_bits),
            p.gbps_without_rb.map(f64::to_bits)
        );
    }

    // And the whole-handle audit still balances after all three.
    tracer.audit().expect("combined figure audit");
}

/// The exporters produce parseable artifacts: the chrome://tracing JSON
/// round-trips through a JSON parser and the folded stacks are
/// `semicolon;separated;frames <count>` lines.
#[test]
fn exports_parse() {
    let tracer = test_tracer();
    xemem_bench::fig6::run_cell_with(1, 4 * MIB, 2, &tracer).unwrap();

    let runs = [(0, tracer.clone())];
    let json = merge_chrome_trace_json(&runs);
    let doc = xemem_bench::wallclock::Json::parse(&json).expect("chrome trace JSON parses");
    match doc {
        xemem_bench::wallclock::Json::Arr(events) => {
            assert!(!events.is_empty(), "empty trace export");
            for ev in &events {
                assert_eq!(
                    ev.get("ph"),
                    Some(&xemem_bench::wallclock::Json::Str("X".into()))
                );
                assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
            }
        }
        other => panic!("chrome trace is not a JSON array: {other:?}"),
    }

    let folded = merge_folded_stacks(&runs);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("folded count is an integer");
    }

    // Metrics flowed: the cell performed attaches, so the attach
    // histogram and op counters are non-empty.
    assert!(tracer.op_count(xemem::trace_layer::SpanKind::Attach) > 0);
    assert!(tracer.counter(Counter::FramesReturned) == 0); // no crashes here
}

/// Disabled handles refuse to audit (nothing was recorded) and record
/// nothing.
#[test]
fn disabled_handle_is_inert() {
    let tracer = TraceHandle::disabled();
    assert!(!tracer.is_enabled());
    assert!(tracer.audit().is_err());
    assert!(tracer.spans().is_empty());
    assert_eq!(tracer.counter(Counter::NsRetries), 0);
}
