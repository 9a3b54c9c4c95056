//! Trace rings cost nothing until written: an enabled handle allocates
//! its metrics registry up front and ring memory only as records land,
//! whatever its capacity. Runs alone in its own test binary so the
//! byte-counting allocator sees no traffic from unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xemem_sim::{SimDuration, SimTime};
use xemem_trace::{Ctx, SpanKind, Timeline, TraceHandle};

struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    f();
    BYTES.load(Ordering::SeqCst) - before
}

#[test]
fn rings_allocate_only_what_is_written() {
    let mut handle = TraceHandle::disabled();
    let at_enable = allocated_by(|| handle = TraceHandle::enabled());
    assert!(
        at_enable < 64 << 10,
        "TraceHandle::enabled() allocated {at_enable} bytes"
    );

    // 500 ops of one leaf each: 1,000 committed spans.
    let ctx = Ctx::proc(1, 7);
    let dur = SimDuration::from_nanos(100);
    let committing = allocated_by(|| {
        for i in 0..500u64 {
            let start = SimTime::from_nanos(i * 100);
            handle.begin_op(SpanKind::Attach, start, ctx, Timeline::Clock);
            handle.commit_op(handle.charge(SpanKind::MapInstall, start, dur, ctx));
        }
    });
    assert!(
        committing < 1 << 20,
        "1,000 committed spans allocated {committing} bytes"
    );
    assert_eq!(handle.spans().len(), 1000);
    assert_eq!(handle.lost_spans(), 0);
}
