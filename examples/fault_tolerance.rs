//! Fault tolerance: scheduled failures and crash-consistent teardown.
//!
//! Builds the two-enclave node from the quickstart, but hands the
//! system a [`FaultPlan`]: a deterministic, virtual-time-stamped
//! schedule of failures — here a name-server outage, a lossy window on
//! the forwarding channels, and an abrupt crash of the exporting
//! process. The example shows each layer reacting:
//!
//! * lookups ride out the outage with exponential backoff (or are
//!   served from a live, time-bounded lease granted by an earlier
//!   lookup),
//! * dropped command hops cost bounded retransmissions in virtual time,
//! * the crash triggers the revocation protocol: the attacher's reaper
//!   unmaps the dead mapping, so reads fail with `SourceGone` instead
//!   of returning stale bytes, and the quarantined frames return to the
//!   owner enclave's allocator once the last reference drops.
//!
//! The run is always traced: the tracer's counters (retries,
//! retransmits, quarantined and returned frames, reaps, …) are the
//! system's record of the failure history, and the conservation
//! auditor verifies every charged nanosecond was attributed.
//!
//! Run with: `cargo run --example fault_tolerance`
//!
//! Pass `--trace-out <path>` to also write the spans — backoff leaves,
//! retransmissions, the revocation/reap spans — as a chrome://tracing
//! JSON you can open in a browser.

use xemem::trace_layer::{merge_chrome_trace_json, merge_folded_stacks, Counter};
use xemem::{FaultPlan, SimDuration, SimTime, SystemBuilder, TraceHandle, XememError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out requires a path")),
            other => panic!("unknown argument: {other} (expected --trace-out PATH)"),
        }
    }
    let tracer = TraceHandle::enabled();

    // The failure schedule, in virtual time:
    //   2 ms  name server goes dark for 150 µs
    //   during [0, 5 ms)  each forwarded hop is dropped with p = 0.1
    //   5 ms  the simulation process (kitten pid 1) is killed
    let plan = FaultPlan::new()
        .name_server_outage(
            SimTime::from_nanos(2_000_000),
            SimDuration::from_micros(150),
        )
        .drop_messages(SimTime::from_nanos(0), SimDuration::from_millis(5), 0.1)
        .kill_process(SimTime::from_nanos(5_000_000), 1, 1);

    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .linux_management("linux0", 4, 512 << 20)
        .kitten_cokernel("kitten0", 1, 256 << 20)
        .with_fault_plan(plan, 42) // same plan + seed => same history
        .build()?;

    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let frames_before = sys.free_frames_of(kitten).unwrap();
    let sim = sys.spawn_process(kitten, 64 << 20)?;
    let analytics = sys.spawn_process(linux, 64 << 20)?;

    // Export a timestep and attach to it across the enclave boundary.
    // Any dropped hops below are retransmitted on a virtual timeout.
    let buf = sys.alloc_buffer(sim, 1 << 20)?;
    sys.write(sim, buf, b"timestep 0 field data")?;
    let segid = sys.xpmem_make(sim, buf, 1 << 20, Some("timestep-0"))?;
    let found = sys.xpmem_search(analytics, "timestep-0")?;
    let apid = sys.xpmem_get(analytics, found)?;
    let va = sys.xpmem_attach(analytics, apid, 0, 1 << 20)?;
    let mut out = vec![0u8; 21];
    sys.read(analytics, va, &mut out)?;
    println!("attached and read: {:?}", String::from_utf8_lossy(&out));

    // Walk into the scheduled name-server outage: a fresh lookup backs
    // off in virtual time until the name server answers again.
    sys.clock().advance_to(SimTime::from_nanos(2_010_000));
    let again = sys.xpmem_search(analytics, "timestep-0")?;
    assert_eq!(again, segid);
    println!("lookup survived the outage at t = {}", sys.clock().now());

    // Walk past the scheduled kill. The next operation delivers the
    // fault: the exporter dies, the owner kernel revokes the segment,
    // and the analytics-side reaper unmaps the attachment.
    sys.clock().advance_to(SimTime::from_nanos(5_000_001));
    match sys.read(analytics, va, &mut out) {
        Err(XememError::SourceGone) => {
            println!("exporter crashed; read correctly failed: source gone")
        }
        other => panic!("expected SourceGone, got {other:?}"),
    }

    // The quarantined frames went back to the kitten allocator the
    // moment the last remote reference dropped, and the kernel freed
    // the rest of the dead process — the partition is back to its
    // pre-spawn state: no leak, no double free.
    assert_eq!(sys.outstanding_loans(), 0);
    assert_eq!(sys.free_frames_of(kitten).unwrap(), frames_before);
    sys.xpmem_detach(analytics, va)?; // bookkeeping-only on a reaped mapping

    let _ = sim;

    // Leaf spans must tile their op roots exactly (the clock-tiling
    // variant doesn't apply here: the manual `advance_to` walks above
    // spend idle time no operation pays for).
    let sums = tracer.audit().expect("conservation audit");
    println!(
        "\ntracing: {} attributed ns, {} name-server retries, {} reaps",
        sums.total_attributed_ns(),
        tracer.counter(Counter::NsRetries),
        tracer.counter(Counter::Reaps),
    );
    // The whole failure history is in the tracer's metrics.
    print!("{}", tracer.metrics_summary());
    if let Some(path) = trace_out {
        let runs = [(0, tracer)];
        std::fs::write(&path, merge_chrome_trace_json(&runs))?;
        std::fs::write(format!("{path}.folded"), merge_folded_stacks(&runs))?;
        println!("tracing: wrote {path} and {path}.folded");
    }
    Ok(())
}
