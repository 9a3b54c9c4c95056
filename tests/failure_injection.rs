//! Integration tests: failure injection across the full stack — resource
//! exhaustion, stale identifiers, invalid windows, permission violations
//! and teardown ordering. Systems run traced, and the tracer's typed
//! counters and op counts are what the tests read the failure history
//! from.

use xemem::trace_layer::{Counter, EdgeKind, ShardCounter, SpanKind};
use xemem::{
    CostModel, FaultPlan, GuestOs, MemoryMapKind, SimDuration, SimTime, SystemBuilder, TraceHandle,
    VirtAddr, XememError,
};
use xemem_mem::KernelError;

const MIB: u64 = 1 << 20;

fn sys2() -> xemem::System {
    SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap()
}

#[test]
fn stale_segid_after_remove_fails_everywhere() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();

    // A grant issued before removal…
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    sys.xpmem_remove(exporter, segid).unwrap();

    // …no longer attaches: the owner's registration is gone.
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, 0, MIB),
        Err(XememError::UnknownSegid(_))
    ));
    // And new gets fail at the name server.
    assert!(matches!(
        sys.xpmem_get(attacher, segid),
        Err(XememError::UnknownSegid(_))
    ));
    // Double remove fails.
    assert!(sys.xpmem_remove(exporter, segid).is_err());
}

#[test]
fn apid_is_process_scoped() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let p1 = sys.spawn_process(linux, 16 * MIB).unwrap();
    let p2 = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(p1, segid).unwrap();
    // Another process cannot use p1's grant.
    assert!(matches!(
        sys.xpmem_attach(p2, apid, 0, MIB),
        Err(XememError::PermissionDenied)
    ));
    assert!(matches!(
        sys.xpmem_release(p2, apid),
        Err(XememError::PermissionDenied)
    ));
}

#[test]
fn window_validation() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    for (offset, len) in [(0u64, 0u64), (0, MIB + 1), (MIB, 4096), (4097, 4096)] {
        assert!(
            matches!(
                sys.xpmem_attach(attacher, apid, offset, len),
                Err(XememError::BadWindow { .. })
            ),
            "window ({offset}, {len}) must be rejected"
        );
    }
}

#[test]
fn enclave_memory_exhaustion_is_contained() {
    // A kitten enclave with a small partition: the second big process
    // fails to spawn, but the system and its other enclaves keep
    // working.
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("tiny", 1, 32 * MIB)
        .build()
        .unwrap();
    let tiny = sys.enclave_by_name("tiny").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let p = sys.spawn_process(tiny, 8 * MIB).unwrap();
    assert!(matches!(
        sys.spawn_process(tiny, 64 * MIB),
        Err(XememError::Kernel(KernelError::Mem(_)))
    ));
    // The first process still exports and a Linux process still attaches.
    let buf = sys.alloc_buffer(p, MIB).unwrap();
    sys.write(p, buf, b"still alive").unwrap();
    let segid = sys.xpmem_make(p, buf, MIB, None).unwrap();
    let attacher = sys.spawn_process(linux, 8 * MIB).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    let mut got = [0u8; 11];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"still alive");
}

#[test]
fn vm_ram_overcommit_rejected_at_build() {
    let err = SystemBuilder::new()
        .with_node(8, 256 * MIB)
        .linux_management("linux", 4, 128 * MIB)
        .palacios_vm(
            "vm",
            "linux",
            512 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .build();
    assert!(matches!(err, Err(XememError::Topology(_))));
}

#[test]
fn detach_of_foreign_or_unattached_address_fails() {
    let mut sys = sys2();
    let linux = sys.enclave_by_name("linux").unwrap();
    let p = sys.spawn_process(linux, 16 * MIB).unwrap();
    assert!(sys.xpmem_detach(p, VirtAddr(0xDEAD_B000)).is_err());
    // A process's own buffer is not an attachment.
    let buf = sys.alloc_buffer(p, MIB).unwrap();
    assert!(sys.xpmem_detach(p, buf).is_err());
}

#[test]
fn reads_through_detached_mapping_fault() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    sys.xpmem_detach(attacher, va).unwrap();
    let mut b = [0u8; 1];
    assert!(sys.read(attacher, va, &mut b).is_err());
    // Reattach works and yields a valid mapping again.
    let va2 = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    sys.read(attacher, va2, &mut b).unwrap();
}

// ---------------------------------------------------------------------
// Crash-consistent teardown: revocation, reaper, loans and grants
// ---------------------------------------------------------------------

#[test]
fn exporter_crash_revokes_attachment_and_reader_gets_source_gone() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let baseline = sys.free_frames_of(kitten).unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"live data").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    let mut got = [0u8; 9];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"live data");

    sys.crash_process(exporter).unwrap();

    // The previously-attached reader faults with SourceGone — it never
    // sees stale bytes through the dead mapping.
    assert!(matches!(
        sys.read(attacher, va, &mut got),
        Err(XememError::SourceGone)
    ));
    assert!(matches!(
        sys.write(attacher, va, b"x"),
        Err(XememError::SourceGone)
    ));
    // The crash quarantined the exported MiB and the reaper ran once...
    let tracer = sys.tracer();
    assert_eq!(tracer.op_count(SpanKind::CrashProcess), 1);
    assert_eq!(tracer.counter(Counter::FramesQuarantined), 256);
    assert_eq!(tracer.counter(Counter::RevokeNotices), 1);
    assert_eq!(tracer.counter(Counter::Reaps), 1);
    // ...the loan drained, and the quarantined frames went home: no leak.
    assert_eq!(sys.outstanding_loans(), 0);
    assert_eq!(tracer.counter(Counter::FramesReturned), 256);
    assert_eq!(sys.free_frames_of(kitten).unwrap(), baseline);
    // The reaped mapping detaches cleanly (bookkeeping only); a second
    // detach reports the tombstone.
    sys.xpmem_detach(attacher, va).unwrap();
    assert!(matches!(
        sys.xpmem_detach(attacher, va),
        Err(XememError::AlreadyDetached(_))
    ));
}

#[test]
fn remove_revokes_remote_attachments_but_exporter_keeps_frames() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"v1").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();

    sys.xpmem_remove(exporter, segid).unwrap();

    // The remote attachment was reaped: access faults, never stale data.
    let mut b = [0u8; 2];
    assert!(matches!(
        sys.read(attacher, va, &mut b),
        Err(XememError::SourceGone)
    ));
    assert_eq!(sys.tracer().counter(Counter::RevokeNotices), 1);
    assert_eq!(sys.tracer().counter(Counter::Reaps), 1);
    // The exporter is alive and keeps its frames — no loan was needed.
    assert_eq!(sys.outstanding_loans(), 0);
    assert_eq!(sys.tracer().counter(Counter::FramesQuarantined), 0);
    sys.read(exporter, buf, &mut b).unwrap();
    assert_eq!(&b, b"v1");
    // It can re-export the same buffer immediately.
    let segid2 = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    assert_ne!(segid, segid2);
    sys.xpmem_detach(attacher, va).unwrap();
}

#[test]
fn exporter_graceful_exit_drives_revocation() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let baseline = sys.free_frames_of(kitten).unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some("output")).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();

    sys.exit_process(exporter).unwrap();

    let mut b = [0u8; 1];
    assert!(matches!(
        sys.read(attacher, va, &mut b),
        Err(XememError::SourceGone)
    ));
    // Graceful exit frees everything the process owned (revocation ran
    // before the kernel reclaimed the frames), and the name is free again.
    assert_eq!(sys.free_frames_of(kitten).unwrap(), baseline);
    assert_eq!(sys.outstanding_loans(), 0);
    assert!(matches!(
        sys.xpmem_search(attacher, "output"),
        Err(XememError::UnknownName(_))
    ));
}

#[test]
fn release_and_attacher_exit_drop_exporter_side_grants() {
    let mut sys = sys2();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let a1 = sys.spawn_process(linux, 16 * MIB).unwrap();
    let a2 = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();

    let apid1 = sys.xpmem_get(a1, segid).unwrap();
    let apid2 = sys.xpmem_get(a2, segid).unwrap();
    let _ = apid2;
    assert_eq!(sys.outstanding_grants(kitten, segid), 2);

    // Explicit release drops one refcount; releasing again is a clean,
    // idempotent error rather than a panic or a silent success.
    sys.xpmem_release(a1, apid1).unwrap();
    assert_eq!(sys.outstanding_grants(kitten, segid), 1);
    assert!(matches!(
        sys.xpmem_release(a1, apid1),
        Err(XememError::AlreadyReleased(_))
    ));

    // An attacher exiting without cleanup no longer leaks its grant.
    sys.exit_process(a2).unwrap();
    assert_eq!(sys.outstanding_grants(kitten, segid), 0);
    sys.xpmem_remove(exporter, segid).unwrap();
}

#[test]
fn destroy_enclave_cascades_to_hosted_vms_and_protects_name_server() {
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 2, 192 * MIB)
        .palacios_vm(
            "vm",
            "kitten",
            64 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Lwk,
        )
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let vm = sys.enclave_by_name("vm").unwrap();
    let exporter = sys.spawn_process(vm, 8 * MIB).unwrap();
    let reader = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(reader, segid).unwrap();
    let va = sys.xpmem_attach(reader, apid, 0, MIB).unwrap();

    // The name-server enclave is not destroyable.
    assert!(matches!(
        sys.destroy_enclave(linux),
        Err(XememError::Topology(_))
    ));

    // Destroying the co-kernel takes its hosted VM down first, revoking
    // the VM's exports on the way out.
    sys.destroy_enclave(kitten).unwrap();
    assert!(!sys.enclave_alive(kitten));
    assert!(!sys.enclave_alive(vm));
    assert_eq!(sys.tracer().op_count(SpanKind::DestroyEnclave), 1);
    assert_eq!(sys.tracer().counter(Counter::Reaps), 1);
    let mut b = [0u8; 1];
    assert!(matches!(
        sys.read(reader, va, &mut b),
        Err(XememError::SourceGone)
    ));

    // Dead enclaves reject everything, including a second destroy.
    assert!(matches!(
        sys.spawn_process(kitten, MIB),
        Err(XememError::EnclaveDead(_))
    ));
    assert!(matches!(
        sys.destroy_enclave(kitten),
        Err(XememError::EnclaveDead(_))
    ));
    assert!(matches!(
        sys.xpmem_get(exporter, segid),
        Err(XememError::EnclaveDead(_))
    ));

    // The surviving enclave still works end to end.
    let p = sys.spawn_process(linux, 8 * MIB).unwrap();
    let lbuf = sys.alloc_buffer(p, MIB).unwrap();
    sys.write(p, lbuf, b"alive").unwrap();
}

#[test]
fn vm_attacher_reap_is_delivered_via_guest_irq() {
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .palacios_vm("vm", "linux", 64 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let vm = sys.enclave_by_name("vm").unwrap();
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let guest = sys.spawn_process(vm, 8 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(guest, segid).unwrap();
    let va = sys.xpmem_attach(guest, apid, 0, MIB).unwrap();

    let irqs_before = sys.vmm_mut(vm).unwrap().pci().irqs_raised();
    sys.xpmem_remove(exporter, segid).unwrap();
    // The revocation notice reaches the guest as a virtual-PCI interrupt
    // and the guest-side reaper unmaps the attachment.
    assert!(sys.vmm_mut(vm).unwrap().pci().irqs_raised() > irqs_before);
    let mut b = [0u8; 1];
    assert!(matches!(
        sys.read(guest, va, &mut b),
        Err(XememError::SourceGone)
    ));
}

// ---------------------------------------------------------------------
// Fault injection: scheduled crashes, outages and lossy links
// ---------------------------------------------------------------------

#[test]
fn injected_exporter_kill_mid_attach_fails_cleanly() {
    // Kill the exporter at a virtual instant that lands inside the attach
    // protocol (between the request hop and the reply).
    const T: u64 = 1_000_000;
    let plan = FaultPlan::new().kill_process(SimTime::from_nanos(T), 1, 1);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 42)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    assert_eq!(kitten.0, 1, "plan targets the kitten slot");
    let baseline = sys.free_frames_of(kitten).unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    assert_eq!(exporter.pid.0, 1, "plan targets the first kitten pid");
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();

    // Step onto the instant just before the scheduled kill, then attach:
    // the fault fires between protocol steps and the attach fails
    // cleanly — no partial mapping is installed.
    sys.clock().advance_to(SimTime::from_nanos(T - 1));
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, 0, MIB),
        Err(XememError::UnknownSegid(_) | XememError::EnclaveDead(_))
    ));
    assert_eq!(sys.tracer().op_count(SpanKind::InjectedKill), 1);
    assert_eq!(sys.outstanding_loans(), 0);
    assert_eq!(sys.free_frames_of(kitten).unwrap(), baseline);

    // The enclave survived its process; a fresh export cycle works.
    let exporter2 = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let buf2 = sys.alloc_buffer(exporter2, MIB).unwrap();
    sys.write(exporter2, buf2, b"redo").unwrap();
    let segid2 = sys.xpmem_make(exporter2, buf2, MIB, None).unwrap();
    let apid2 = sys.xpmem_get(attacher, segid2).unwrap();
    let va = sys.xpmem_attach(attacher, apid2, 0, MIB).unwrap();
    let mut got = [0u8; 4];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"redo");
}

#[test]
fn injected_enclave_crash_mid_attach_reports_dead_enclave() {
    const T: u64 = 1_000_000;
    let plan = FaultPlan::new().crash_enclave(SimTime::from_nanos(T), 1);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 42)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    assert_eq!(kitten.0, 1);
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();

    sys.clock().advance_to(SimTime::from_nanos(T - 1));
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, 0, MIB),
        Err(XememError::EnclaveDead(_) | XememError::UnknownSegid(_))
    ));
    assert_eq!(sys.tracer().op_count(SpanKind::InjectedCrash), 1);
    assert!(!sys.enclave_alive(kitten));
    assert!(matches!(
        sys.spawn_process(kitten, MIB),
        Err(XememError::EnclaveDead(_))
    ));
    // The management enclave and name server keep working.
    let p = sys.spawn_process(linux, 8 * MIB).unwrap();
    let b2 = sys.alloc_buffer(p, MIB).unwrap();
    assert!(sys.xpmem_make(p, b2, MIB, Some("post-crash")).is_ok());
}

/// An injected crash aimed at the slot hosting the sole name-server
/// replica is not delivered: the last replica's failure mode is the
/// bounded outage, so the enclave lives on and the namespace keeps
/// answering.
#[test]
fn injected_crash_of_the_sole_name_server_slot_is_skipped() {
    const T: u64 = 1_000_000;
    let plan = FaultPlan::new().crash_enclave(SimTime::from_nanos(T), 0);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 42)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    assert_eq!(linux.0, 0, "plan targets the name-server slot");
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let reader = sys.spawn_process(linux, 16 * MIB).unwrap();

    sys.clock().advance_to(SimTime::from_nanos(T + 1));
    sys.deliver_pending_faults();
    assert!(sys.enclave_alive(linux));
    assert_eq!(sys.tracer().op_count(SpanKind::InjectedCrash), 0);

    // Registration and lookup still run through the name server.
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some("after")).unwrap();
    assert_eq!(sys.xpmem_search(reader, "after").unwrap(), segid);
}

/// An injected kill of a pid that does not exist is a no-op: no
/// teardown op commits, and live processes, attachments and frame books
/// are untouched.
#[test]
fn injected_kill_of_a_missing_pid_disturbs_nothing() {
    const T: u64 = 1_000_000;
    let plan = FaultPlan::new().kill_process(SimTime::from_nanos(T), 1, 99);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 42)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    assert_eq!(kitten.0, 1, "plan targets the kitten slot");
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"intact").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    let frames = sys.free_frames_of(kitten).unwrap();

    sys.clock().advance_to(SimTime::from_nanos(T + 1));
    sys.deliver_pending_faults();
    let tracer = sys.tracer();
    assert_eq!(tracer.op_count(SpanKind::InjectedKill), 0);
    assert_eq!(tracer.counter(Counter::RevokeNotices), 0);
    assert_eq!(tracer.counter(Counter::Reaps), 0);
    assert!(sys.enclave_alive(kitten));
    assert_eq!(sys.free_frames_of(kitten).unwrap(), frames);
    assert_eq!(sys.outstanding_grants(kitten, segid), 1);
    let mut got = [0u8; 6];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"intact");
}

#[test]
fn name_server_outage_lease_serves_and_backoff_recovery() {
    const START: u64 = 1_000_000_000;
    const DUR: u64 = 100_000; // 100 µs — inside the default retry budget
    let plan = FaultPlan::new()
        .name_server_outage(SimTime::from_nanos(START), SimDuration::from_nanos(DUR));
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 9)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"field0").unwrap();
    sys.xpmem_make(exporter, buf, MIB, Some("field")).unwrap();
    // Renew the consumer's leases just before the window: leases run for
    // 200 µs of virtual time, so grants taken 50 µs before the outage
    // are still live inside it.
    sys.clock().advance_to(SimTime::from_nanos(START - 50_000));
    let segid = sys.xpmem_search(consumer, "field").unwrap();
    let warm = sys.xpmem_get(consumer, segid).unwrap();
    sys.xpmem_release(consumer, warm).unwrap();
    let cbuf = sys.alloc_buffer(consumer, MIB).unwrap();

    // Jump into the outage window.
    sys.clock().advance_to(SimTime::from_nanos(START + 1_000));

    // Lookups within the lease term never touch the dead server...
    let tracer = sys.tracer().clone();
    assert_eq!(tracer.counter(Counter::NsLeaseServes), 0);
    assert_eq!(sys.xpmem_search(consumer, "field").unwrap(), segid);
    assert_eq!(tracer.counter(Counter::NsLeaseServes), 1);
    let apid = sys.xpmem_get(consumer, segid).unwrap();
    assert_eq!(tracer.counter(Counter::NsLeaseServes), 2);
    assert_eq!(tracer.counter(Counter::NsRetries), 0);

    // ...while mutations ride out the outage with exponential backoff.
    let segid2 = sys.xpmem_make(consumer, cbuf, MIB, Some("late")).unwrap();
    assert!(tracer.counter(Counter::NsRetries) > 0);
    assert!(
        sys.clock().now() >= SimTime::from_nanos(START + DUR),
        "backoff waited out the outage"
    );

    // After recovery everything behaves normally, including the grant
    // issued from the leased cache.
    let va = sys.xpmem_attach(consumer, apid, 0, MIB).unwrap();
    let mut got = [0u8; 6];
    sys.read(consumer, va, &mut got).unwrap();
    assert_eq!(&got, b"field0");
    assert_eq!(sys.xpmem_search(consumer, "late").unwrap(), segid2);
}

#[test]
fn name_server_outage_exhausts_bounded_retry_budget() {
    // A tiny retry budget against a long outage: the caller gets a clean
    // NameServerUnavailable instead of hanging forever.
    let plan =
        FaultPlan::new().name_server_outage(SimTime::from_nanos(0), SimDuration::from_millis(10));
    let cost = CostModel {
        ns_retry_base_ns: 1_000,
        ns_retry_max_attempts: 3,
        ..CostModel::default()
    };
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_cost(cost)
        .with_fault_plan(plan, 1)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let p = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(p, MIB).unwrap();
    // The error context surfaces what the retry loop actually did: 3
    // attempts sleeping 1000 << k ns each (backoff = 1+2+4 µs).
    match sys.xpmem_make(p, buf, MIB, None) {
        Err(XememError::NameServerUnavailable {
            shard,
            attempts,
            backoff,
        }) => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 3);
            assert_eq!(backoff, SimDuration::from_nanos(1_000 + 2_000 + 4_000));
        }
        other => panic!("expected NameServerUnavailable, got {other:?}"),
    }
    assert_eq!(sys.tracer().counter(Counter::NsRetries), 3);
    assert_eq!(sys.tracer().shard_counter(0, ShardCounter::Retries), 3);
    // An uncached lookup during the outage fails the same way.
    assert!(matches!(
        sys.xpmem_search(p, "nothing-cached"),
        Err(XememError::NameServerUnavailable { .. })
    ));
    // Once the outage passes, the same operation succeeds.
    sys.clock().advance_to(SimTime::from_nanos(11_000_000));
    assert!(sys.xpmem_make(p, buf, MIB, None).is_ok());
}

#[test]
fn lossy_links_retransmit_and_duplicate_without_breaking_protocol() {
    const WINDOW: u64 = 50_000_000;
    let plan = FaultPlan::new()
        .drop_messages(
            SimTime::from_nanos(0),
            SimDuration::from_nanos(WINDOW),
            0.35,
        )
        .duplicate_messages(SimTime::from_nanos(0), SimDuration::from_nanos(WINDOW), 1.0);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 128 * MIB)
        .with_fault_plan(plan, 1234)
        .with_tracer(TraceHandle::enabled())
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"lossy").unwrap();
    // Every cross-enclave command still completes: drops cost bounded
    // retransmissions (virtual timeouts), duplicates are harmless.
    let segid = sys.xpmem_make(exporter, buf, MIB, Some("noisy")).unwrap();
    let found = sys.xpmem_search(attacher, "noisy").unwrap();
    assert_eq!(found, segid);
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    let mut got = [0u8; 5];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"lossy");
    assert!(sys.tracer().counter(Counter::DupDeliveries) > 0);
    assert!(sys.tracer().counter(Counter::Retransmits) > 0);
}

/// Four enclaves with the namespace sharded 2 × 2: shard 0 is led by
/// slot 0 (linux, the name-server slot) with follower slot 2, shard 1
/// by slot 1 (kitten0) with follower slot 3 (kitten2).
fn sharded4(plan: Option<FaultPlan>) -> xemem::System {
    let mut b = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 64 * MIB)
        .kitten_cokernel("kitten1", 1, 64 * MIB)
        .kitten_cokernel("kitten2", 1, 64 * MIB)
        .name_service_shards(2, 2)
        .with_tracer(TraceHandle::enabled());
    if let Some(plan) = plan {
        b = b.with_fault_plan(plan, 7);
    }
    b.build().unwrap()
}

/// The first name with the given `tag` prefix that consistent-hashes to
/// `shard` (the ring is a pure function of the name, so tests can probe
/// deterministically).
fn name_on_shard(sys: &xemem::System, shard: usize, tag: &str) -> String {
    (0..1024)
        .map(|i| format!("{tag}{i}"))
        .find(|n| sys.name_service().shard_of_name(n) == shard)
        .expect("no name hashed to the shard in 1024 probes")
}

#[test]
fn shard_scoped_outage_only_stalls_its_own_shard() {
    const START: u64 = 1_000_000;
    const DUR: u64 = 100_000;
    let plan = FaultPlan::new().name_server_shard_outage(
        SimTime::from_nanos(START),
        1,
        SimDuration::from_nanos(DUR),
    );
    let mut sys = sharded4(Some(plan));
    let tracer = sys.tracer().clone();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten1 = sys.enclave_by_name("kitten1").unwrap();
    let name0 = name_on_shard(&sys, 0, "a");
    let name1 = name_on_shard(&sys, 1, "b");
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten1, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let seg0 = sys.xpmem_make(exporter, buf, MIB, Some(&name0)).unwrap();
    let buf2 = sys.alloc_buffer(exporter, MIB).unwrap();
    let seg1 = sys.xpmem_make(exporter, buf2, MIB, Some(&name1)).unwrap();

    // Inside the outage window, a lookup routed to the dark shard backs
    // off until the shard recovers...
    sys.clock().advance_to(SimTime::from_nanos(START + 1_000));
    assert_eq!(sys.xpmem_search(consumer, &name1).unwrap(), seg1);
    assert!(
        sys.clock().now() >= SimTime::from_nanos(START + DUR),
        "the shard-1 lookup should have ridden out the outage"
    );
    // ...while the sibling shard keeps answering without a single retry.
    assert_eq!(sys.xpmem_search(consumer, &name0).unwrap(), seg0);

    // Retry/backoff accounting is attributed to the sick shard in the
    // metrics registry, not smeared service-wide.
    assert!(tracer.shard_counter(1, ShardCounter::Retries) > 0);
    assert_eq!(tracer.shard_counter(0, ShardCounter::Retries), 0);
    assert!(tracer.shard_counter(1, ShardCounter::BackoffNs) > 0);
    tracer.audit().expect("conservation audit");
}

#[test]
fn leader_crash_fails_over_and_fences_outstanding_leases() {
    let mut sys = sharded4(None);
    let tracer = sys.tracer().clone();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten0 = sys.enclave_by_name("kitten0").unwrap();
    let kitten1 = sys.enclave_by_name("kitten1").unwrap();
    assert_eq!(sys.name_service().leader_slot(1), Some(kitten0.0));
    let name = name_on_shard(&sys, 1, "seg");
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten1, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some(&name)).unwrap();

    // The consumer takes a lease on the name from shard 1's leader.
    assert_eq!(sys.xpmem_search(consumer, &name).unwrap(), segid);

    // Let the registration replicate, then kill the leader. The shard
    // promotes its follower, bumps the epoch and goes dark for the
    // election timeout.
    let t = sys.clock().now();
    sys.clock().advance_to(t + SimDuration::from_nanos(50_000));
    sys.destroy_enclave(kitten0).unwrap();
    assert_eq!(tracer.shard_counter(1, ShardCounter::Failovers), 1);
    assert_eq!(sys.name_service().epoch(1), 1);
    assert_eq!(sys.name_service().failover_count(1), 1);
    assert_eq!(sys.name_service().leader_slot(1), Some(3));

    // The consumer's lease is still inside its 200 µs validity window,
    // but the epoch fence must keep it from being served: the lookup
    // re-routes, waits out the election, and gets the answer from the
    // replicated map on the new leader.
    assert_eq!(sys.xpmem_search(consumer, &name).unwrap(), segid);
    assert_eq!(tracer.shard_counter(1, ShardCounter::LeaseExpirations), 1);
    assert!(tracer.shard_counter(1, ShardCounter::Retries) > 0);
    assert_eq!(tracer.counter(Counter::NsLeaseServes), 0);
}

#[test]
fn get_owner_lease_is_granted_served_renewed_and_fenced() {
    let mut sys = sharded4(None);
    let tracer = sys.tracer().clone();
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten0 = sys.enclave_by_name("kitten0").unwrap();
    let kitten1 = sys.enclave_by_name("kitten1").unwrap();
    let name = name_on_shard(&sys, 1, "own");
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten1, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some(&name)).unwrap();
    assert_eq!(sys.name_service().shard_of_segid(segid).unwrap(), 1);
    let shard1 = |c| tracer.shard_counter(1, c);
    let sends = || tracer.edge_count(EdgeKind::SendRecv);
    let get = |sys: &mut xemem::System| {
        let apid = sys.xpmem_get(consumer, segid).unwrap();
        sys.xpmem_release(consumer, apid).unwrap();
    };

    // A routed get asks shard 1's leader, which grants an owner lease.
    get(&mut sys);
    assert_eq!(shard1(ShardCounter::LeaseGrants), 1);

    // Inside the 200 µs lease the owner is answered locally: no message.
    let before = sends();
    get(&mut sys);
    assert_eq!(shard1(ShardCounter::LeaseServes), 1);
    assert_eq!(sends(), before);

    // Past expiry the get re-routes and takes a fresh grant.
    let t = sys.clock().now();
    sys.clock().advance_to(t + SimDuration::from_nanos(300_000));
    let before = sends();
    get(&mut sys);
    assert_eq!(shard1(ShardCounter::LeaseExpirations), 1);
    assert_eq!(shard1(ShardCounter::LeaseGrants), 2);
    assert!(sends() > before);

    // Killing the leader bumps the shard's epoch, which fences the
    // fresh lease while it is still inside its window: the get goes to
    // the promoted follower instead of being served from the cache.
    sys.destroy_enclave(kitten0).unwrap();
    assert_eq!(sys.name_service().epoch(1), 1);
    get(&mut sys);
    assert_eq!(shard1(ShardCounter::LeaseExpirations), 2);
    assert_eq!(shard1(ShardCounter::LeaseGrants), 3);
    assert_eq!(shard1(ShardCounter::LeaseServes), 1);
    assert_eq!(tracer.counter(Counter::NsLeaseServes), 1);
    tracer.audit().expect("conservation audit");
}

#[test]
fn dead_leader_loses_unreplicated_registrations() {
    let mut sys = sharded4(None);
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten0 = sys.enclave_by_name("kitten0").unwrap();
    let kitten1 = sys.enclave_by_name("kitten1").unwrap();
    let name = name_on_shard(&sys, 1, "fresh");
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten1, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some(&name)).unwrap();

    // Kill shard 1's leader before the registration's replication-lag
    // horizon passes: the insert never reached the follower and is lost
    // in the failover.
    sys.destroy_enclave(kitten0).unwrap();
    assert_eq!(
        sys.tracer()
            .shard_counter(1, ShardCounter::LostRegistrations),
        1
    );

    // After the election the new leader simply does not know the name.
    let t = sys.clock().now();
    sys.clock().advance_to(t + SimDuration::from_nanos(100_000));
    assert!(matches!(
        sys.xpmem_search(consumer, &name),
        Err(XememError::UnknownName(_))
    ));
    // The exporter's withdrawal of the lost registration is tolerated,
    // not an error: the exporter keeps its frames and the segment is
    // gone everywhere.
    sys.xpmem_remove(exporter, segid).unwrap();
    assert_eq!(sys.outstanding_loans(), 0);
}

#[test]
fn remove_revokes_live_leases_before_expiry() {
    let mut sys = sharded4(None);
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten1 = sys.enclave_by_name("kitten1").unwrap();
    let name = name_on_shard(&sys, 0, "rm");
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let consumer = sys.spawn_process(kitten1, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some(&name)).unwrap();

    // The consumer takes name and owner leases...
    assert_eq!(sys.xpmem_search(consumer, &name).unwrap(), segid);
    let apid = sys.xpmem_get(consumer, segid).unwrap();
    sys.xpmem_release(consumer, apid).unwrap();

    // ...and the remove races them: both leases are still inside their
    // 200 µs validity windows when the exporter withdraws the segment,
    // so the leader revokes them eagerly rather than letting them run
    // out.
    sys.xpmem_remove(exporter, segid).unwrap();
    let shard = sys.name_service().shard_of_segid(segid).unwrap();
    assert_eq!(
        sys.tracer()
            .shard_counter(shard, ShardCounter::LeaseRevocations),
        1
    );

    // Within what would have been the lease window, neither lookup
    // serves the revoked cache entry.
    assert!(matches!(
        sys.xpmem_search(consumer, &name),
        Err(XememError::UnknownName(_))
    ));
    assert!(matches!(
        sys.xpmem_get(consumer, segid),
        Err(XememError::UnknownSegid(_))
    ));
    assert_eq!(sys.tracer().counter(Counter::NsLeaseServes), 0);
}

#[test]
fn guest_ram_boundary_enforced_through_vm_data_path() {
    // A guest process cannot be given more memory than the VM has RAM:
    // the guest kernel's allocator is bounded by the memory map.
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 64 * MIB)
        .palacios_vm("vm", "linux", 48 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .build()
        .unwrap();
    let vm = sys.enclave_by_name("vm").unwrap();
    let p = sys.spawn_process(vm, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(p, 64 * MIB).unwrap(); // VMA reserve succeeds…
                                                      // …but faulting in more frames than guest RAM fails cleanly.
    let res = sys.write(p, buf, &vec![1u8; 64 * MIB as usize]);
    assert!(matches!(res, Err(XememError::Kernel(KernelError::Mem(_)))));
}

// ---------------------------------------------------------------------
// Buffer-pool crash-safe reclamation (xemem-pool over the fault injector)
// ---------------------------------------------------------------------

/// A scheduled pool-consumer crash mid-hold: the exporter-side reaper
/// sweeps the dead consumer's outstanding references exactly once, the
/// pool ends leak-free, and the surviving consumer is untouched.
#[test]
fn pool_consumer_crash_sweeps_outstanding_slots_exactly_once() {
    use xemem_pool::{BufferPool, Holder};

    let tracer = TraceHandle::enabled();
    let plan = FaultPlan::new()
        .pool_capacity(8)
        // Enclave slot 1 (kitten0) crashes at t=500 µs holding pool refs.
        .pool_consumer_crash(SimTime::from_nanos(500_000), 1, 3);
    let mut sys = SystemBuilder::new()
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 64 * MIB)
        .kitten_cokernel("kitten1", 1, 64 * MIB)
        .with_fault_plan(plan, 11)
        .with_tracer(tracer.clone())
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let k0 = sys.enclave_by_name("kitten0").unwrap();
    let k1 = sys.enclave_by_name("kitten1").unwrap();
    let producer = sys.spawn_process(linux, 32 * MIB).unwrap();
    let doomed = sys.spawn_process(k0, 2 * MIB).unwrap();
    let survivor = sys.spawn_process(k1, 2 * MIB).unwrap();

    let t = sys.clock().now();
    let (mut pool, t) =
        BufferPool::create_at(&mut sys, producer, 8, 4096, Some("fi-pool"), 4, t).unwrap();
    let (dead_c, t) = pool.join_at(&mut sys, doomed, t).unwrap();
    let (live_c, t) = pool.join_at(&mut sys, survivor, t).unwrap();

    // The doomed consumer holds one consumed slot and one ring entry;
    // the survivor holds one consumed slot.
    let (g, t) = pool.acquire_at(t).unwrap();
    let t = pool.publish_at(dead_c, g, t).unwrap();
    let (held, t) = pool.consume_at(dead_c, t).unwrap();
    let _abandoned = held.unwrap();
    let (g, t) = pool.acquire_at(t).unwrap();
    let t = pool.publish_at(dead_c, g, t).unwrap();
    let (g, t) = pool.acquire_at(t).unwrap();
    let t = pool.publish_at(live_c, g, t).unwrap();
    let (live_guard, t) = pool.consume_at(live_c, t).unwrap();
    let live_guard = live_guard.unwrap();
    assert_eq!(pool.free_slots(), 5);

    // Cross the fault horizon and deliver the scheduled crash.
    sys.clock().advance_to(SimTime::from_nanos(600_000).max(t));
    sys.deliver_pending_faults();
    assert!(!sys.enclave_alive(k0));
    assert_eq!(tracer.op_count(SpanKind::InjectedCrash), 1);

    // One sweep reclaims both of the dead consumer's references…
    let now = sys.clock().now();
    let (swept, t) = pool.sweep_at(&mut sys, now);
    assert_eq!(swept, 2);
    assert!(!pool.consumer_alive(dead_c));
    assert_eq!(pool.free_slots(), 7);
    // …and a second sweep finds nothing left (exactly-once).
    let (again, t) = pool.sweep_at(&mut sys, t);
    assert_eq!(again, 0);
    assert_eq!(pool.free_slots(), 7);

    // The survivor's hold was never touched: its generation still
    // matches and release succeeds normally.
    let t = pool
        .release_at(Holder::Consumer(live_c.0), live_guard, t)
        .unwrap();
    let _ = t;
    pool.leak_check().unwrap();
    tracer.audit().expect("conservation");
}

/// Pool fault-plan validation mirrors the shard-validation precedent:
/// out-of-range consumer slots, out-of-range pool slots, and plans that
/// never declared a capacity are all rejected with descriptive errors.
#[test]
fn pool_fault_plans_are_validated_like_shard_plans() {
    // Consumer enclave slot out of range.
    let plan =
        FaultPlan::new()
            .pool_capacity(8)
            .pool_consumer_crash(SimTime::from_nanos(100), 6, 0);
    let err = plan.validate(3, 1).unwrap_err();
    assert!(err.contains("slot 6"), "got: {err}");

    // Pool slot index beyond the declared capacity.
    let plan =
        FaultPlan::new()
            .pool_capacity(8)
            .pool_consumer_crash(SimTime::from_nanos(100), 1, 8);
    let err = plan.validate(3, 1).unwrap_err();
    assert!(err.contains("pool slot 8"), "got: {err}");

    // No declared capacity at all.
    let plan = FaultPlan::new().pool_consumer_crash(SimTime::from_nanos(100), 1, 0);
    let err = plan.validate(3, 1).unwrap_err();
    assert!(
        err.contains("without declaring a pool capacity"),
        "got: {err}"
    );

    // The well-formed variant passes.
    FaultPlan::new()
        .pool_capacity(8)
        .pool_consumer_crash(SimTime::from_nanos(100), 1, 7)
        .validate(3, 1)
        .unwrap();
}
