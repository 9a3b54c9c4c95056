//! The paper's Fig. 1/2 topology: a Linux management enclave, two Kitten
//! co-kernels, and Palacios VMs on both kinds of host — with memory
//! shared between the two *VMs*, the deepest routing path in the tree.
//!
//! Prints the registration and attachment message flows — read back
//! from the tracer's `SendRecv` edges, the one record of protocol
//! traffic — so the hierarchical routing protocol (paper §3.2) is
//! visible.
//!
//! Run with: `cargo run --example enclave_topology`

use xemem::{GuestOs, MemoryMapKind, MessageKind, SimTime, System, SystemBuilder, TraceHandle};

/// Print every protocol hop traced in `[from, to)`, in send order.
fn print_hops(sys: &System, from: SimTime, to: SimTime) {
    for e in sys.tracer().edges() {
        if let Some(kind) = MessageKind::of_edge(&e).filter(|_| (from..to).contains(&e.src)) {
            let (a, b) = (e.src_ctx.enclave, e.dst_ctx.enclave);
            println!("  [{}] slot{a} -> slot{b}: {kind:?}", e.src);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const MIB: u64 = 1 << 20;
    let mut sys = SystemBuilder::new()
        .with_tracer(TraceHandle::enabled())
        .linux_management("linuxB", 4, 512 * MIB) // hosts the name server
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
        .build()?;

    println!("Topology (paper Fig. 2):");
    println!("  linuxB (name server)");
    println!("  ├── lwkA           [Pisces IPI channel]");
    println!("  ├── lwkD           [Pisces IPI channel]");
    println!("  │   └── vmF        [Palacios virtual PCI]");
    println!("  └── vmC            [Palacios virtual PCI]");
    for i in 0..sys.enclave_count() {
        let e = xemem::EnclaveRef(i);
        println!("  slot {i}: id {:?}", sys.enclave_id(e).unwrap());
    }

    println!("\nRegistration traffic (discovery broadcasts + enclave-ID allocation):");
    let registered = sys.clock().now();
    print_hops(&sys, SimTime::ZERO, registered);

    // VM-to-VM sharing: vmC exports, vmF attaches. The request must
    // climb vmF -> lwkD -> linuxB (name server) and descend to vmC.
    let vmc = sys.enclave_by_name("vmC").unwrap();
    let vmf = sys.enclave_by_name("vmF").unwrap();
    let exporter = sys.spawn_process(vmc, 16 * MIB)?;
    let attacher = sys.spawn_process(vmf, 16 * MIB)?;
    let buf = sys.alloc_buffer(exporter, MIB)?;
    sys.write(exporter, buf, b"hello from vmC")?;
    let segid = sys.xpmem_make(exporter, buf, MIB, None)?;
    let apid = sys.xpmem_get(attacher, segid)?;
    let va = sys.xpmem_attach(attacher, apid, 0, MIB)?;
    let mut got = [0u8; 14];
    sys.read(attacher, va, &mut got)?;
    assert_eq!(&got, b"hello from vmC");

    println!("\nVM-to-VM attachment traffic for {segid}:");
    print_hops(&sys, registered, sys.clock().now());
    println!(
        "\nvmF read {:?} through two VMMs and two co-kernel hops",
        std::str::from_utf8(&got).unwrap()
    );
    Ok(())
}
