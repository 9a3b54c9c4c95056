//! Integration test: the shared-memory protocol walk-through of paper
//! Fig. 3, step by step, with the traced message hops asserted at each
//! stage — and proof that the tracer's `SendRecv` edges are a complete
//! record of protocol traffic.
//!
//! Fig. 3's scenario: three enclaves register domains with the name
//! server; enclave 1 exports a region (allocating segid X); enclave 2
//! attaches to segid X, which routes through the name server to the
//! owner, triggers the PFN-list generation, and returns the list for
//! local mapping — after which both processes address the same physical
//! frames.

use xemem::trace_layer::SpanKind;
use xemem::{
    GuestOs, MemoryMapKind, MessageKind, SimDuration, SimTime, System, SystemBuilder, TraceHandle,
    VirtAddr,
};

const MIB: u64 = 1 << 20;

/// The protocol hops traced from `since` on, in send order, as
/// `(from slot, to slot, message)`.
fn hops_since(sys: &System, since: SimTime) -> Vec<(u32, u32, MessageKind)> {
    let edges = sys.tracer().edges().into_iter().filter(|e| e.src >= since);
    let hop = |e: xemem::trace_layer::Edge| {
        Some((
            e.src_ctx.enclave,
            e.dst_ctx.enclave,
            MessageKind::of_edge(&e)?,
        ))
    };
    edges.filter_map(hop).collect()
}

/// Assert that the traced routing time in `[from, from + len)` — every
/// hop (`SendRecv` edge, first attempt to delivery) plus the forwarding
/// and name-server leaves between hops — is exactly `len`.
fn assert_route_fully_traced(sys: &System, from: SimTime, len: SimDuration) {
    let window = from..from + len;
    let edges = sys.tracer().edges();
    let hops = edges
        .iter()
        .filter(|e| window.contains(&e.src) && MessageKind::of_edge(e).is_some());
    let spans = sys.tracer().spans();
    let between = spans
        .iter()
        .filter(|s| !s.root && window.contains(&s.start));
    let between =
        between.filter(|s| matches!(s.kind, SpanKind::RouteForward | SpanKind::NsProcess));
    let traced = hops
        .map(|e| e.dst.duration_since(e.src))
        .chain(between.map(|s| s.dur));
    assert!(len > SimDuration::ZERO);
    assert_eq!(traced.fold(SimDuration::ZERO, |a, b| a + b), len);
}

#[test]
fn fig3_walkthrough() {
    // Enclave 0 = name server (management Linux); enclaves 1 and 2 are
    // co-kernels, as in the figure.
    let mut sys = SystemBuilder::new()
        .with_tracer(TraceHandle::enabled())
        .linux_management("enclave0", 4, 256 * MIB)
        .kitten_cokernel("enclave1", 1, 128 * MIB)
        .kitten_cokernel("enclave2", 1, 128 * MIB)
        .build()
        .unwrap();

    // Step 1 (registration) already ran at build: both co-kernels
    // discovered the name server and allocated enclave IDs through it.
    let reg_kinds: Vec<MessageKind> = hops_since(&sys, SimTime::ZERO)
        .into_iter()
        .map(|(_, _, kind)| kind)
        .collect();
    assert!(reg_kinds.contains(&MessageKind::NameServerQuery));
    assert!(reg_kinds.contains(&MessageKind::AllocEnclaveId));
    assert!(reg_kinds.contains(&MessageKind::EnclaveIdReply));
    let since = sys.clock().now();

    let e1 = sys.enclave_by_name("enclave1").unwrap();
    let e2 = sys.enclave_by_name("enclave2").unwrap();
    let exporter = sys.spawn_process(e1, 32 * MIB).unwrap();
    let attacher = sys.spawn_process(e2, 32 * MIB).unwrap();

    // Steps 2–3: enclave 1 exports a region; the segid allocation
    // request routes to the name server and the reply returns.
    let buf = sys.alloc_buffer(exporter, 4 * MIB).unwrap();
    sys.write(exporter, buf, b"fig3 payload").unwrap();
    let segid = sys.xpmem_make(exporter, buf, 4 * MIB, None).unwrap();
    let make_hops = hops_since(&sys, since);
    assert_eq!(
        make_hops,
        vec![
            (1, 0, MessageKind::AllocSegid),
            (0, 1, MessageKind::SegidReply),
        ]
    );
    let since = sys.clock().now();

    // Steps 4–7: enclave 2 attaches. The get validates the segid with
    // the name server; the attach request routes enclave2 → name server
    // → enclave1; the owner walks its page tables; the PFN list routes
    // back for local mapping.
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let start = sys.clock().now();
    let outcome = sys
        .xpmem_attach_outcome(attacher, apid, 0, 4 * MIB)
        .unwrap();
    let attach_hops = hops_since(&sys, since);
    let pages = 4 * MIB / 4096;
    assert_eq!(
        attach_hops,
        vec![
            (2, 0, MessageKind::SearchSegid),
            (0, 2, MessageKind::SearchReply),
            (2, 0, MessageKind::GetPfnList),
            (0, 1, MessageKind::GetPfnList),
            (1, 0, MessageKind::PfnListReply { pages }),
            (0, 2, MessageKind::PfnListReply { pages }),
        ],
        "attach must route through the name server in both directions"
    );

    // The serve phase did real page-table-walk work and the reply's bulk
    // payload dominated the request's (tiny command header vs 8 B/page).
    assert!(outcome.serve > xemem::SimDuration::ZERO);
    assert!(outcome.route_reply > outcome.route_request);
    // The hops are the whole record: with the forwarding and name-server
    // leaves between them they tile both routing legs exactly.
    assert_route_fully_traced(&sys, start, outcome.route_request);
    let reply_at = start + outcome.route_request + outcome.serve;
    assert_route_fully_traced(&sys, reply_at, outcome.route_reply);

    // And the mapping is real: both processes see the same bytes.
    let mut got = vec![0u8; 12];
    sys.read(attacher, outcome.va, &mut got).unwrap();
    assert_eq!(&got, b"fig3 payload");
    sys.write(attacher, VirtAddr(outcome.va.0 + 100), b"reply")
        .unwrap();
    let mut back = vec![0u8; 5];
    sys.read(exporter, VirtAddr(buf.0 + 100), &mut back)
        .unwrap();
    assert_eq!(&back, b"reply");
}

#[test]
fn routing_avoids_name_server_when_route_known() {
    // After an enclave ID allocation passes through an intermediate hop,
    // that hop can route directly (paper §3.2's forwarding algorithm) —
    // verify with the name server placed *off* the direct path.
    let mut sys = SystemBuilder::new()
        .with_tracer(TraceHandle::enabled())
        .linux_management("mgmt", 4, 256 * MIB)
        .kitten_cokernel("k0", 1, 128 * MIB)
        .kitten_cokernel("k1", 1, 128 * MIB)
        .name_server_at("k0")
        .build()
        .unwrap();
    let mgmt = sys.enclave_by_name("mgmt").unwrap();
    let k1 = sys.enclave_by_name("k1").unwrap();
    let exporter = sys.spawn_process(k1, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(mgmt, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let since = sys.clock().now();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let _va = sys.xpmem_attach(attacher, apid, 0, MIB).unwrap();
    // The GetPfnList from mgmt must route mgmt→k0 (toward NS)… but mgmt
    // learned k1's route during registration (it forwarded k1's ID
    // reply), so the request goes straight to k1 instead.
    let (from, to, _) = hops_since(&sys, since)
        .into_iter()
        .find(|(_, _, kind)| *kind == MessageKind::GetPfnList)
        .expect("attach request sent");
    assert_eq!(from, 0);
    assert_eq!(
        to, 2,
        "mgmt already knows the route to k1 and must not detour via the name server"
    );
}

#[test]
fn registration_discovery_and_vm_to_vm_routes_are_fully_traced() {
    // The paper's Fig. 2 tree: linuxB (name server, slot 0) hosts lwkA
    // (1), lwkD (2) and vmC (3); lwkD hosts vmF (4).
    let mut sys = SystemBuilder::new()
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
        .unwrap();
    // Discovery: each enclave registering (BFS from the name server)
    // queries every neighbour, and the first with a path to the name
    // server replies — 2 × 4 tree edges − 3 name-server links = 5
    // queries, and one reply per registrant.
    let discovery = |kind| -> Vec<(u32, u32)> {
        let hops = hops_since(&sys, SimTime::ZERO).into_iter();
        hops.filter(|h| h.2 == kind).map(|h| (h.0, h.1)).collect()
    };
    let queries = [(1, 0), (2, 0), (2, 4), (3, 0), (4, 2)];
    assert_eq!(discovery(MessageKind::NameServerQuery), queries);
    let replies = [(0, 1), (0, 2), (0, 3), (2, 4)];
    assert_eq!(discovery(MessageKind::NameServerQueryReply), replies);

    // The deepest attach in the tree, vmF → lwkD → linuxB → vmC: both
    // routing legs are tiled by traced hops.
    let (vmc, vmf) = (
        sys.enclave_by_name("vmC").unwrap(),
        sys.enclave_by_name("vmF").unwrap(),
    );
    let exporter = sys.spawn_process(vmc, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(vmf, 16 * MIB).unwrap();
    let buf = sys.alloc_buffer(exporter, MIB).unwrap();
    let segid = sys.xpmem_make(exporter, buf, MIB, None).unwrap();
    let apid = sys.xpmem_get(attacher, segid).unwrap();
    let start = sys.clock().now();
    let o = sys.xpmem_attach_outcome(attacher, apid, 0, MIB).unwrap();
    assert_route_fully_traced(&sys, start, o.route_request);
    assert_route_fully_traced(&sys, start + o.route_request + o.serve, o.route_reply);
}
