//! Proves the zero-overhead-when-disabled claim at the allocator level:
//! every hook on a disabled [`TraceHandle`] must complete without a
//! single heap allocation. Runs alone in its own test binary so the
//! counting allocator sees no traffic from unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xemem_sim::{SimDuration, SimTime};
use xemem_trace::{Counter, Ctx, EdgeKind, Hist, SpanKind, Timeline, TraceHandle};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracing_hooks_never_allocate() {
    let handle = TraceHandle::disabled();
    let ctx = Ctx::seg(3, 7, 0x42);
    let start = SimTime::from_nanos(1_000);
    let dur = SimDuration::from_nanos(250);

    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        handle.begin_op(SpanKind::Attach, start, ctx, Timeline::Clock);
        handle.leaf(SpanKind::IpiWait, start, dur, ctx);
        let t = handle.charge(SpanKind::IpiXfer, start + dur, dur, ctx);
        handle.leaf(SpanKind::MapInstall, t, dur, ctx);
        handle.commit_op(start + dur.times(4));
        handle.count(Counter::Retransmits, i);
        handle.observe(Hist::AttachNs, i);
        handle.edge(EdgeKind::SendRecv, start, start + dur, ctx, ctx);
        handle.send_recv(start, start + dur, ctx, ctx, 3, 64);
        assert!(!handle.is_enabled());
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled tracing hooks allocated {} times",
        after - before
    );
}
