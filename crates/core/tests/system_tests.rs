//! System-level tests of the XEMEM protocol engine: topology
//! construction, registration, routing, the XPMEM API lifecycle, and
//! data flow across every attach path the paper exercises.

use xemem::{
    GuestOs, MemoryMapKind, MessageKind, System, SystemBuilder, TraceHandle, VirtAddr, XememError,
};

const MIB: u64 = 1 << 20;

fn two_enclave_system() -> System {
    SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .build()
        .unwrap()
}

/// The paper's Fig. 1/2 topology: management Linux + two Kitten
/// co-kernels, one of which hosts a VM, plus a VM on Linux itself.
/// Traced, so its protocol hops can be read back.
fn paper_like_system() -> System {
    SystemBuilder::new()
        .with_tracer(TraceHandle::enabled())
        .linux_management("linuxB", 4, 512 * MIB)
        .kitten_cokernel("lwkA", 1, 128 * MIB)
        .kitten_cokernel("lwkD", 1, 192 * MIB)
        .palacios_vm(
            "vmC",
            "linuxB",
            96 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .palacios_vm("vmF", "lwkD", 96 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .build()
        .unwrap()
}

#[test]
fn registration_assigns_unique_ids_and_routes() {
    let sys = paper_like_system();
    let mut ids: Vec<_> = (0..sys.enclave_count())
        .map(|i| sys.enclave_id(xemem::EnclaveRef(i)).expect("registered"))
        .collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 5, "duplicate enclave ids");
}

#[test]
fn registration_messages_follow_the_hierarchy() {
    let sys = paper_like_system();
    // vmF (slot 4) registers through lwkD (slot 2): its AllocEnclaveId
    // must hop vmF→lwkD→linuxB, never directly vmF→linuxB.
    let alloc_hops: Vec<_> = sys
        .tracer()
        .edges()
        .into_iter()
        .filter(|e| MessageKind::of_edge(e) == Some(MessageKind::AllocEnclaveId))
        .filter(|e| e.src_ctx.enclave == 4)
        .collect();
    assert!(!alloc_hops.is_empty());
    assert!(
        alloc_hops.iter().all(|e| e.dst_ctx.enclave == 2),
        "vmF must route via lwkD"
    );
}

#[test]
fn cross_enclave_data_round_trip_native() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, 2 * MIB).unwrap();
    let payload: Vec<u8> = (0..(2 * MIB)).map(|i| (i % 253) as u8).collect();
    sys.write(exporter, buf, &payload).unwrap();

    let segid = sys.xpmem_make(exporter, buf, 2 * MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, 2 * MIB).unwrap();

    let mut got = vec![0u8; payload.len()];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(got, payload);

    // Writes flow back to the exporter: same physical frames.
    sys.write(attacher, va, b"ANALYTICS RESULT").unwrap();
    let mut back = vec![0u8; 16];
    sys.read(exporter, buf, &mut back).unwrap();
    assert_eq!(&back, b"ANALYTICS RESULT");
}

#[test]
fn attach_with_offset_window() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, VirtAddr(buf.0 + 8192), b"windowed")
        .unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();

    // Attach only the third page.
    let va = sys.xpmem_attach(attacher, apid, 8192, 4096).unwrap();
    let mut got = [0u8; 8];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"windowed");

    // Out-of-range windows are rejected.
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, MIB - 4096, 8192),
        Err(XememError::BadWindow { .. })
    ));
    // Unaligned offsets are rejected.
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, 100, 4096),
        Err(XememError::BadWindow { .. })
    ));
}

#[test]
fn vm_attaches_to_kitten_export() {
    // Table 2 row 2 topology: Kitten exports, a Linux VM (on the Linux
    // host) attaches.
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 384 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .palacios_vm(
            "vm0",
            "linux0",
            128 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let vm = sys.enclave_by_name("vm0").unwrap();
    let exporter = sys.spawn_process(kitten, 32 * MIB).unwrap();
    let attacher = sys.spawn_process(vm, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, 4 * MIB).unwrap();
    sys.write(exporter, buf, b"host-side data for the vm")
        .unwrap();
    let segid = sys.xpmem_make(exporter, buf, 4 * MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let outcome = sys
        .xpmem_attach_outcome(attacher, apid, 0, 4 * MIB)
        .unwrap();

    let mut got = vec![0u8; 25];
    sys.read(attacher, outcome.va, &mut got).unwrap();
    assert_eq!(&got, b"host-side data for the vm");

    // The VM's memory map grew by one entry per page.
    assert_eq!(sys.vmm_mut(vm).unwrap().map_entries(), 1 + 1024);

    // The attach-side mapping dominated by VMM map updates: the map
    // phase must be several times the serve (walk) phase.
    assert!(
        outcome.map > outcome.serve.times(2),
        "map {:?} serve {:?}",
        outcome.map,
        outcome.serve
    );
}

#[test]
fn kitten_attaches_to_vm_export() {
    // Table 2 row 3 topology: a Linux VM exports, Kitten attaches.
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 384 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .palacios_vm(
            "vm0",
            "linux0",
            128 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let vm = sys.enclave_by_name("vm0").unwrap();
    let exporter = sys.spawn_process(vm, 32 * MIB).unwrap();
    let attacher = sys.spawn_process(kitten, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, 2 * MIB).unwrap();
    sys.write(exporter, buf, b"guest-exported").unwrap();
    let segid = sys.xpmem_make(exporter, buf, 2 * MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, 2 * MIB).unwrap();

    let mut got = vec![0u8; 14];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"guest-exported");
}

#[test]
fn vm_to_vm_across_cokernel_hosts() {
    // The hardest topology: VM on one co-kernel attaches to memory
    // exported by a VM on the Linux host — four-hop routing.
    let mut sys = paper_like_system();
    let vmc = sys.enclave_by_name("vmC").unwrap();
    let vmf = sys.enclave_by_name("vmF").unwrap();
    let exporter = sys.spawn_process(vmc, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(vmf, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"vm to vm!").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let since = sys.clock().now();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();

    let mut got = [0u8; 9];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"vm to vm!");

    // The request transited the hierarchy: vmF→lwkD→linuxB→vmC.
    let hops: Vec<(u32, u32)> = sys
        .tracer()
        .edges()
        .iter()
        .filter(|e| e.src >= since && MessageKind::of_edge(e) == Some(MessageKind::GetPfnList))
        .map(|e| (e.src_ctx.enclave, e.dst_ctx.enclave))
        .collect();
    assert_eq!(hops, vec![(4, 2), (2, 0), (0, 3)]);
}

#[test]
fn a_new_process_never_reads_the_previous_owners_bytes() {
    // Frames returning to an allocator read as zero: process B, spawned
    // where A exited, gets A's frames back by first fit at the same VA
    // and must not see A's bytes — natively, under Linux, and in a VM
    // guest (whose frames are discarded through the VMM memory map).
    let mut sys = paper_like_system();
    for name in ["lwkA", "linuxB", "vmC"] {
        let e = sys.enclave_by_name(name).unwrap();
        let a = sys.spawn_process(e, 16 * MIB).unwrap();
        let buf = sys.alloc_buffer(a, MIB).unwrap();
        sys.write(a, buf, b"secret of process A").unwrap();
        sys.exit_process(a).unwrap();
        let b = sys.spawn_process(e, 16 * MIB).unwrap();
        assert_eq!(sys.alloc_buffer(b, MIB).unwrap(), buf, "{name}: same VA");
        let mut got = [0xAAu8; 19];
        sys.read(b, buf, &mut got).unwrap();
        assert_eq!(got, [0u8; 19], "{name}: B read A's bytes");
    }
}

#[test]
fn name_discovery_via_search() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 8 * MIB).unwrap();
    let searcher = sys.spawn_process(linux, 8 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys
        .xpmem_make(exporter, buf, MIB, Some("checkpoint-7"))
        .unwrap();
    assert_eq!(sys.xpmem_search(searcher, "checkpoint-7").unwrap(), segid);
    assert!(matches!(
        sys.xpmem_search(searcher, "nonexistent"),
        Err(XememError::UnknownName(_))
    ));
}

#[test]
fn full_lifecycle_make_get_attach_detach_release_remove() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 8 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 8 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();

    sys.xpmem_detach(attacher, va).unwrap();
    // Double detach fails.
    assert!(sys.xpmem_detach(attacher, va).is_err());
    sys.xpmem_release(attacher, apid).unwrap();
    // Released apid can't attach.
    assert!(matches!(
        sys.xpmem_attach(attacher, apid, 0, MIB),
        Err(XememError::UnknownApid(_))
    ));
    sys.xpmem_remove(exporter, segid).unwrap();
    // Removed segid can't be got.
    assert!(matches!(
        sys.xpmem_get(attacher, segid),
        Err(XememError::UnknownSegid(_))
    ));
}

#[test]
fn remove_requires_ownership() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let exporter = sys.spawn_process(kitten, 8 * MIB).unwrap();
    let other = sys.spawn_process(kitten, 8 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    assert!(sys.xpmem_remove(other, segid).is_err());
}

#[test]
fn local_linux_attachment_uses_fault_semantics() {
    // Single-OS XEMEM (the paper's Linux/Linux baseline): attach is
    // cheap, cost is paid per touched page (Fig. 8(b) explanation).
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(linux, 32 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 32 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, 4 * MIB).unwrap();
    sys.write(exporter, buf, &vec![7u8; 4 * MIB as usize])
        .unwrap();
    let segid = sys.xpmem_make(exporter, buf, 4 * MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let outcome = sys
        .xpmem_attach_outcome(attacher, apid, 0, 4 * MIB)
        .unwrap();
    // Lazy attach: the map phase is tiny (no per-page work yet).
    assert!(
        outcome.map < xemem::SimDuration::from_micros(50),
        "map = {:?}",
        outcome.map
    );
    // But the data is correct on first touch.
    let mut byte = [0u8; 1];
    sys.read(attacher, outcome.va + (4 * MIB - 1), &mut byte)
        .unwrap();
    assert_eq!(byte[0], 7);
}

#[test]
fn name_server_can_live_in_a_cokernel() {
    // The paper: "the name server can be deployed in any enclave".
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .kitten_cokernel("kitten1", 1, 128 * MIB)
        .name_server_at("kitten0")
        .build()
        .unwrap();
    let k1 = sys.enclave_by_name("kitten1").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(k1, 8 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 8 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"ns in cokernel").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    let mut got = [0u8; 14];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"ns in cokernel");
}

#[test]
fn topology_validation_errors() {
    // No enclaves.
    assert!(SystemBuilder::new().build().is_err());
    // Root must be the management enclave.
    assert!(SystemBuilder::new()
        .kitten_cokernel("k", 1, MIB)
        .build()
        .is_err());
    // Duplicate names.
    assert!(SystemBuilder::new()
        .linux_management("a", 1, 64 * MIB)
        .kitten_cokernel("a", 1, 64 * MIB)
        .build()
        .is_err());
    // Unknown VM host.
    assert!(SystemBuilder::new()
        .linux_management("a", 1, 64 * MIB)
        .palacios_vm("v", "nope", 64 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .build()
        .is_err());
    // Nested VMs unsupported.
    assert!(SystemBuilder::new()
        .linux_management("a", 1, 64 * MIB)
        .palacios_vm("v1", "a", 64 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .palacios_vm("v2", "v1", 64 * MIB, MemoryMapKind::RbTree, GuestOs::Fwk)
        .build()
        .is_err());
    // Node too small.
    assert!(SystemBuilder::new()
        .with_node(1, 32 * MIB)
        .linux_management("a", 2, 64 * MIB)
        .build()
        .is_err());
}

#[test]
fn eight_enclave_scalability_topology_boots() {
    // The Fig. 6 worst case: 8 co-kernel enclaves.
    let mut b = SystemBuilder::new().linux_management("linux0", 8, 512 * MIB);
    for i in 0..8 {
        b = b.kitten_cokernel(&format!("kitten{i}"), 1, 96 * MIB);
    }
    let mut sys = b.build().unwrap();
    assert_eq!(sys.enclave_count(), 9);
    // Every co-kernel can serve an attachment to a distinct Linux process.
    let linux = sys.enclave_by_name("linux0").unwrap();
    for i in 0..8 {
        let k = sys.enclave_by_name(&format!("kitten{i}")).unwrap();
        let exporter = sys.spawn_process(k, 8 * MIB).unwrap();
        let attacher = sys.spawn_process(linux, 4 * MIB).unwrap();
        let buf = sys.alloc_buffer(exporter, MIB).unwrap();
        let msg = format!("from kitten{i}");
        sys.write(exporter, buf, msg.as_bytes()).unwrap();
        let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
        let apid = sys.xpmem_get(attacher, segid).unwrap();
        let va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
        let mut got = vec![0u8; msg.len()];
        sys.read(attacher, va, &mut got).unwrap();
        assert_eq!(got, msg.as_bytes());
    }
}

#[test]
fn attach_outcome_native_throughput_band() {
    // Table 2 row 1 in miniature: Kitten → Linux attach throughput for a
    // 32 MiB region should land near 13 GB/s.
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 64 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let len = 32 * MIB;
    let buf = sys.alloc_buffer(exporter, len).unwrap();
    let segid = sys.xpmem_make(exporter, buf, len, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let outcome = sys.xpmem_attach_outcome(attacher, apid, 0, len).unwrap();
    let total = outcome.route_request + outcome.serve + outcome.route_reply + outcome.map;
    let gbps = len as f64 / total.as_secs_f64() / 1e9;
    assert!((11.0..15.0).contains(&gbps), "native attach = {gbps} GB/s");
}

#[test]
fn read_only_grants_reject_writes() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"immutable").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();

    // A read-only grant (XPMEM_RDONLY): reads work, writes fault.
    let ro = sys
        .xpmem_get_mode(attacher, segid, xemem::AccessMode::ReadOnly)
        .unwrap();
    let va = sys.xpmem_attach(attacher, ro, 0, MIB).unwrap();
    let mut got = [0u8; 9];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"immutable");
    assert!(
        sys.write(attacher, va, b"nope").is_err(),
        "write through RO mapping must fault"
    );
    // The exporter's own mapping stays writable.
    sys.write(exporter, buf, b"ok").unwrap();

    // A read-write grant on the same segment still works.
    let rw = sys.xpmem_get(attacher, segid).unwrap();
    let va2 = sys.xpmem_attach(attacher, rw, 0, MIB).unwrap();
    sys.write(attacher, va2, b"writable").unwrap();
}

#[test]
fn read_only_grant_into_a_vm() {
    // The RO protection must survive the Palacios guest-attach path.
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .palacios_vm(
            "vm0",
            "linux0",
            96 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let vm = sys.enclave_by_name("vm0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(vm, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    sys.write(exporter, buf, b"vm-visible").unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let ro = sys
        .xpmem_get_mode(attacher, segid, xemem::AccessMode::ReadOnly)
        .unwrap();
    let va = sys.xpmem_attach(attacher, ro, 0, MIB).unwrap();
    let mut got = [0u8; 10];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(&got, b"vm-visible");
    assert!(sys.write(attacher, va, b"nope").is_err());
}

#[test]
fn exit_process_tears_everything_down() {
    let mut sys = two_enclave_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, Some("doomed")).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let _va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();

    // Exporter exits: its segment disappears from the name server.
    sys.exit_process(exporter).unwrap();
    assert!(matches!(
        sys.xpmem_search(attacher, "doomed"),
        Err(XememError::UnknownName(_))
    ));
    let p2 = sys.spawn_process(linux, 8 * MIB).unwrap();
    assert!(sys.xpmem_get(p2, segid).is_err());

    // Attacher exits cleanly too (its attachment is detached first).
    sys.exit_process(attacher).unwrap();
    // Double exit fails.
    assert!(sys.exit_process(attacher).is_err());
}

// ---------------------------------------------------------------------------
// Memory tiers and hot/cold migration
// ---------------------------------------------------------------------------

use xemem::{FaultPlan, MemTier, SimDuration, SimTime, TierPolicy};

/// Two enclaves where the Kitten co-kernel carries a CXL expander
/// reserve alongside its DRAM partition.
fn tiered_system() -> System {
    SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .tier_reserve(MemTier::Cxl, 64 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .build()
        .unwrap()
}

#[test]
fn migrate_extent_moves_segment_and_repoints_live_attachments() {
    let mut sys = tiered_system();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(linux, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(exporter, 2 * MIB).unwrap();
    let payload: Vec<u8> = (0..2 * MIB).map(|i| (i % 251) as u8).collect();
    sys.write(exporter, buf, &payload).unwrap();
    let segid = sys.xpmem_make(exporter, buf, 2 * MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let va = sys.xpmem_attach(attacher, apid, 0, 2 * MIB).unwrap();

    let free_before = sys.tier_free_frames(kitten, MemTier::Cxl).unwrap();
    let t_before = sys.clock().now();
    let pages = sys.migrate_extent(exporter, segid, MemTier::Cxl).unwrap();
    assert_eq!(pages, 512, "the whole 2 MiB export moves");
    assert!(sys.clock().now() > t_before, "migration costs virtual time");
    assert_eq!(sys.tier_of_chunk(kitten, segid, 0), Some(MemTier::Cxl));
    assert_eq!(
        sys.tier_free_frames(kitten, MemTier::Cxl).unwrap(),
        free_before - pages,
        "destination frames come out of the CXL reserve"
    );

    // The pre-existing attachment was re-pointed in place: same VA,
    // same bytes, now backed by CXL frames.
    let mut got = vec![0u8; 2 * MIB as usize];
    sys.read(attacher, va, &mut got).unwrap();
    assert_eq!(got, payload);

    // Writes through the attachment still land in frames the owner sees.
    sys.write(attacher, va, b"tiered").unwrap();
    let mut own = [0u8; 6];
    sys.read(exporter, buf, &mut own).unwrap();
    assert_eq!(&own, b"tiered");
}

#[test]
fn tier_policy_promotes_hot_chunks_and_demotes_them_when_idle() {
    let policy = TierPolicy {
        window: SimDuration::from_micros(100),
        hot_threshold: 4,
        cold_threshold: 0,
        hysteresis: 2,
        chunk_pages: 64, // 256 KiB chunks
        fast_tier: MemTier::LocalDram,
    };
    let mut sys = SystemBuilder::new()
        .with_tier_policy(policy)
        .tier_reserve(MemTier::Nvm, 64 * MIB)
        .linux_management("linux0", 4, 256 * MIB)
        .build()
        .unwrap();
    let linux = sys.enclave_by_name("linux0").unwrap();
    let owner = sys.spawn_process(linux, 16 * MIB).unwrap();

    let buf = sys.alloc_buffer(owner, 512 * 1024).unwrap(); // 2 chunks
    sys.prepare_buffer(owner, buf, 512 * 1024).unwrap();
    let segid = sys.xpmem_make(owner, buf, 512 * 1024, None).unwrap();

    // Static placement parks the segment (and re-homes it) on NVM.
    sys.migrate_extent(owner, segid, MemTier::Nvm).unwrap();
    assert_eq!(sys.tier_of_chunk(linux, segid, 0), Some(MemTier::Nvm));
    assert_eq!(sys.tier_of_chunk(linux, segid, 1), Some(MemTier::Nvm));

    // Hammer chunk 0 across several counting windows; chunk 1 idles.
    let mut page = vec![0u8; 4096];
    for _ in 0..400 {
        sys.read(owner, buf, &mut page).unwrap();
    }
    let moves = sys.tier_policy_tick(owner).unwrap();
    assert!(
        moves
            .iter()
            .any(|m| m.chunk == 0 && m.to == MemTier::LocalDram),
        "hot chunk promoted to DRAM, got {moves:?}"
    );
    assert_eq!(sys.tier_of_chunk(linux, segid, 0), Some(MemTier::LocalDram));
    assert_eq!(
        sys.tier_of_chunk(linux, segid, 1),
        Some(MemTier::Nvm),
        "the idle chunk stays parked"
    );

    // Burn virtual time elsewhere: the promoted chunk goes cold and the
    // next tick demotes it back to its NVM home.
    let scratch = sys.alloc_buffer(owner, 256 * 1024).unwrap();
    let mut big = vec![0u8; 256 * 1024];
    for _ in 0..40 {
        sys.read(owner, scratch, &mut big).unwrap();
    }
    let moves = sys.tier_policy_tick(owner).unwrap();
    assert!(
        moves.iter().any(|m| m.chunk == 0 && m.to == MemTier::Nvm),
        "cold chunk demoted home, got {moves:?}"
    );
    assert_eq!(sys.tier_of_chunk(linux, segid, 0), Some(MemTier::Nvm));
}

#[test]
fn tier_outage_blocks_migration_with_a_typed_error() {
    let plan = FaultPlan::new()
        .tiers_configured(&[MemTier::Cxl])
        .tier_outage(SimTime::ZERO, 1, MemTier::Cxl, SimDuration::from_secs(60));
    let mut sys = SystemBuilder::new()
        .linux_management("linux0", 4, 256 * MIB)
        .tier_reserve(MemTier::Cxl, 64 * MIB)
        .kitten_cokernel("kitten0", 1, 128 * MIB)
        .with_fault_plan(plan, 7)
        .build()
        .unwrap();
    let kitten = sys.enclave_by_name("kitten0").unwrap();
    let exporter = sys.spawn_process(kitten, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();

    match sys.migrate_extent(exporter, segid, MemTier::Cxl) {
        Err(XememError::TierUnavailable { slot, tier }) => {
            assert_eq!(slot, 1);
            assert_eq!(tier, MemTier::Cxl);
        }
        other => panic!("expected TierUnavailable, got {other:?}"),
    }
    // Nothing moved: the segment still lives in local DRAM.
    assert_eq!(
        sys.tier_of_chunk(kitten, segid, 0),
        Some(MemTier::LocalDram)
    );
}
