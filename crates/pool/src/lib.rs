//! # xemem-pool
//!
//! The zero-copy buffer-pool service layer over XEMEM segments — the
//! production shape exemplified by slot-indexed shared-memory pools: a
//! metadata header region plus size-classed data slabs inside **one
//! exported segment**, refcounted acquire/release guards, and
//! cross-enclave producer/consumer rings.
//!
//! The segment is laid out by [`xemem_mem::SlabLayout`] (page-aligned
//! header + slabs), exported once with `xpmem_make` and attached by each
//! consumer through the extent fast path, so joining costs O(extents)
//! regardless of pool capacity. After that, no per-buffer protocol
//! traffic exists at all: producers and consumers exchange *slot
//! indices* through rings, and the payload bytes move zero-copy through
//! the shared mapping.
//!
//! Every pool operation is charged in virtual time through
//! [`xemem_sim::CostModel`] (`pool_*` fields) and framed on the detached
//! timeline with exact leaf tiling, so the conservation auditor covers
//! the pool like every other subsystem. Ring publishes and consumes are
//! linked by `slot_publish_consume` causal edges; crash sweeps emit
//! `crash_slot_sweep` edges.
//!
//! ## Crash-safe reclamation
//!
//! A consumer that crashes mid-hold must never leak a slot, and no live
//! consumer may observe a recycled slot early. The pool subscribes to
//! the system's crash notices ([`xemem::System::drain_crash_notices`],
//! fed by the same revocation/quarantine protocol that reaps the dead
//! consumer's attachment): [`BufferPool::sweep_at`] drops every
//! reference the dead consumer held — both consumed holds and ring
//! entries still in flight toward it — exactly once. A slot only
//! returns to the free list when its refcount reaches zero, and its
//! generation is bumped at that instant, so stale `(slot, generation)`
//! pairs are detectable forever after.

use std::collections::VecDeque;

use xemem::{ProcessRef, Segid, System, VirtAddr, XememError};
use xemem_mem::SlabLayout;
use xemem_sim::{SimDuration, SimTime};
use xemem_trace::{Counter, Ctx, EdgeKind, Hist, SpanKind, Timeline, TraceHandle};

/// Errors surfaced by pool operations.
#[derive(Debug)]
pub enum PoolError {
    /// The underlying XEMEM protocol failed (attach, export, …).
    Sys(XememError),
    /// Every slot is taken.
    Exhausted,
    /// The target consumer's ring is at capacity.
    RingFull {
        /// Consumer index the publish was aimed at.
        consumer: usize,
    },
    /// The consumer id is unknown or has been swept after a crash.
    ConsumerGone {
        /// The offending consumer index.
        consumer: usize,
    },
    /// A guard's generation no longer matches the slot header: the slot
    /// was reclaimed while the guard was outstanding. With correct use
    /// (release every guard once, sweep only via crash notices) this is
    /// unreachable; it exists so misuse fails loudly instead of
    /// recycling a live slot.
    StaleGuard {
        /// Slot index the guard referenced.
        slot: u32,
    },
    /// The pool shape is degenerate (zero slots, zero-byte slabs, or a
    /// zero-capacity ring).
    BadShape,
}

impl From<XememError> for PoolError {
    fn from(e: XememError) -> Self {
        PoolError::Sys(e)
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Sys(e) => write!(f, "pool: {e}"),
            PoolError::Exhausted => write!(f, "pool exhausted: no free slot"),
            PoolError::RingFull { consumer } => {
                write!(f, "consumer {consumer}'s ring is full")
            }
            PoolError::ConsumerGone { consumer } => {
                write!(f, "consumer {consumer} is unknown or swept")
            }
            PoolError::StaleGuard { slot } => {
                write!(f, "stale guard for slot {slot} (already reclaimed)")
            }
            PoolError::BadShape => write!(f, "degenerate pool shape"),
        }
    }
}

impl std::error::Error for PoolError {}

/// An owned reference to one pool slot.
///
/// Guards are logical RAII: they cannot charge virtual time from `Drop`
/// (a drop has no virtual timestamp), so they are `#[must_use]` values
/// consumed by [`BufferPool::release_at`] / [`BufferPool::publish_at`].
/// A guard abandoned by a crashed consumer is reclaimed by the crash
/// sweep instead.
#[must_use = "a slot guard must be released or published (or it leaks its slot until a crash sweep)"]
#[derive(Debug, PartialEq, Eq)]
pub struct SlotGuard {
    slot: u32,
    gen: u64,
}

impl SlotGuard {
    /// The slot index this guard references.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The slot generation the guard was issued against.
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

/// Who holds a guard: the exporting (producer) process, or a joined
/// consumer. Determines which mapping [`BufferPool::slab_va`] resolves
/// through and which hold table a release updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holder {
    /// The pool's exporting process (slabs via the local buffer).
    Exporter,
    /// A joined consumer (slabs via its cross-enclave attachment).
    Consumer(usize),
}

/// Identity of a joined consumer, handed out by [`BufferPool::join_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerId(pub usize);

#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    refs: u32,
    gen: u64,
}

#[derive(Debug, Clone, Copy)]
struct RingEntry {
    slot: u32,
    gen: u64,
    /// Virtual end of the publish that enqueued the entry; consumes
    /// observe it (the `slot_publish_consume` edge source) and never
    /// dequeue entries published after their own virtual time.
    published: SimTime,
    src_ctx: Ctx,
}

#[derive(Debug)]
struct ConsumerState {
    proc: ProcessRef,
    va: VirtAddr,
    ring: VecDeque<RingEntry>,
    /// Slots held after a consume, not yet released.
    holds: Vec<(u32, u64)>,
    alive: bool,
}

/// Copied `pool_*` charge constants (so pool ops need no `&System`).
#[derive(Debug, Clone, Copy)]
struct PoolCosts {
    scan: u64,
    init: u64,
    refc: u64,
    push: u64,
    pop: u64,
    sweep_slot: u64,
}

/// One buffer pool inside one exported segment.
///
/// The pool object itself is exporter-side coordinator state (free
/// list, slot headers, rings); the *payload* lives in the shared
/// segment and is read/written zero-copy through [`BufferPool::slab_va`]
/// addresses. All mutating calls take an explicit virtual time and
/// return the completion time, like every `*_at` API in the workspace,
/// so the pool composes with the PDES engine and the concurrency
/// experiments.
pub struct BufferPool {
    exporter: ProcessRef,
    segid: Segid,
    base: VirtAddr,
    layout: SlabLayout,
    ring_cap: usize,
    meta: Vec<SlotMeta>,
    /// Free slots; ordered so the lowest index is acquired first.
    free: Vec<u32>,
    consumers: Vec<ConsumerState>,
    costs: PoolCosts,
    tracer: TraceHandle,
}

impl BufferPool {
    /// Export a new pool from `exporter`: one segment of
    /// `slots × slot_bytes` (plus the slot-indexed header region),
    /// allocated, exported and optionally registered under `name`.
    /// Returns the pool and the virtual completion time.
    pub fn create_at(
        sys: &mut System,
        exporter: ProcessRef,
        slots: u32,
        slot_bytes: u64,
        name: Option<&str>,
        ring_cap: usize,
        at: SimTime,
    ) -> Result<(BufferPool, SimTime), PoolError> {
        let layout = SlabLayout::new(u64::from(slots), slot_bytes).ok_or(PoolError::BadShape)?;
        if ring_cap == 0 {
            return Err(PoolError::BadShape);
        }
        let (base, t) = sys.alloc_buffer_at(exporter, layout.segment_bytes(), at)?;
        let (segid, t) = sys.make_at(exporter, base, layout.segment_bytes(), name, t)?;
        let m = sys.cost_model();
        let costs = PoolCosts {
            scan: m.pool_slot_scan_ns,
            init: m.pool_slot_init_ns,
            refc: m.pool_ref_ns,
            push: m.pool_ring_push_ns,
            pop: m.pool_ring_pop_ns,
            sweep_slot: m.pool_sweep_slot_ns,
        };
        let pool = BufferPool {
            exporter,
            segid,
            base,
            layout,
            ring_cap,
            meta: vec![SlotMeta { refs: 0, gen: 0 }; slots as usize],
            free: (0..slots).rev().collect(),
            consumers: Vec::new(),
            costs,
            tracer: sys.tracer().clone(),
        };
        Ok((pool, t))
    }

    /// Join `proc` as a consumer: `xpmem_get` + one attach of the whole
    /// pool segment (O(extents) — this is the only mapping operation a
    /// consumer ever performs, however many buffers later flow to it).
    pub fn join_at(
        &mut self,
        sys: &mut System,
        proc: ProcessRef,
        at: SimTime,
    ) -> Result<(ConsumerId, SimTime), PoolError> {
        let (apid, t) = sys.get_at(proc, self.segid, at)?;
        let out = sys.attach_at(proc, apid, 0, self.layout.segment_bytes(), t)?;
        self.consumers.push(ConsumerState {
            proc,
            va: out.va,
            ring: VecDeque::new(),
            holds: Vec::new(),
            alive: true,
        });
        Ok((ConsumerId(self.consumers.len() - 1), out.end))
    }

    /// The segment the pool lives in.
    pub fn segid(&self) -> Segid {
        self.segid
    }

    /// The pool's slot layout.
    pub fn layout(&self) -> &SlabLayout {
        &self.layout
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Entries queued in a consumer's ring.
    pub fn ring_depth(&self, c: ConsumerId) -> usize {
        self.consumers.get(c.0).map_or(0, |s| s.ring.len())
    }

    /// Whether a consumer is still live (not crash-swept).
    pub fn consumer_alive(&self, c: ConsumerId) -> bool {
        self.consumers.get(c.0).is_some_and(|s| s.alive)
    }

    /// The address of slot `slot`'s data slab in `holder`'s address
    /// space — exporter-local buffer or the consumer's attachment. Pass
    /// it to the `System` read/write paths for zero-copy payload access.
    pub fn slab_va(&self, holder: Holder, slot: u32) -> Option<VirtAddr> {
        let off = self.layout.slab_offset(u64::from(slot));
        match holder {
            Holder::Exporter => Some(VirtAddr(self.base.0 + off)),
            Holder::Consumer(i) => {
                let c = self.consumers.get(i)?;
                c.alive.then(|| VirtAddr(c.va.0 + off))
            }
        }
    }

    /// The process a consumer joined as (for driving reads/writes).
    pub fn consumer_proc(&self, c: ConsumerId) -> Option<ProcessRef> {
        self.consumers.get(c.0).map(|s| s.proc)
    }

    fn exporter_ctx(&self) -> Ctx {
        Ctx::seg(self.exporter.enclave.0, self.exporter.pid.0, self.segid.0)
    }

    fn consumer_ctx(&self, i: usize) -> Ctx {
        let p = self.consumers[i].proc;
        Ctx::seg(p.enclave.0, p.pid.0, self.segid.0)
    }

    /// Acquire a free slot for the exporting producer: free-list pop,
    /// header init (generation stamp), refcount 0→1. Charged as one
    /// detached-timeline `pool_acquire` frame tiled by scan/init/ref
    /// leaves. Fails with [`PoolError::Exhausted`] (charging nothing)
    /// when no slot is free.
    pub fn acquire_at(&mut self, at: SimTime) -> Result<(SlotGuard, SimTime), PoolError> {
        let Some(slot) = self.free.pop() else {
            return Err(PoolError::Exhausted);
        };
        let ctx = self.exporter_ctx();
        let c = self.costs;
        self.tracer
            .begin_op(SpanKind::PoolAcquire, at, ctx, Timeline::Detached);
        let mut t = at;
        for (kind, ns) in [
            (SpanKind::PoolSlotScan, c.scan),
            (SpanKind::PoolSlotInit, c.init),
            (SpanKind::PoolRefcount, c.refc),
        ] {
            t = self
                .tracer
                .charge(kind, t, SimDuration::from_nanos(ns), ctx);
        }
        self.tracer.commit_op(t);
        self.tracer.count(Counter::PoolAcquires, 1);
        let m = &mut self.meta[slot as usize];
        debug_assert_eq!(m.refs, 0, "free-listed slot had live refs");
        m.refs = 1;
        Ok((SlotGuard { slot, gen: m.gen }, t))
    }

    /// Publish a held slot into consumer `c`'s ring, transferring the
    /// guard's reference to the ring entry (net refcount unchanged; one
    /// charged refcount op for the handoff). The consumer sees the entry
    /// no earlier than the returned completion time. On failure the
    /// guard is handed back so the caller can release or retry.
    pub fn publish_at(
        &mut self,
        c: ConsumerId,
        guard: SlotGuard,
        at: SimTime,
    ) -> Result<SimTime, (SlotGuard, PoolError)> {
        if !self.consumers.get(c.0).is_some_and(|s| s.alive) {
            return Err((guard, PoolError::ConsumerGone { consumer: c.0 }));
        }
        {
            let m = self.meta[guard.slot as usize];
            if m.gen != guard.gen || m.refs == 0 {
                let slot = guard.slot;
                return Err((guard, PoolError::StaleGuard { slot }));
            }
        }
        if self.consumers[c.0].ring.len() >= self.ring_cap {
            return Err((guard, PoolError::RingFull { consumer: c.0 }));
        }
        let src_ctx = self.exporter_ctx();
        let costs = self.costs;
        self.tracer
            .begin_op(SpanKind::PoolPublish, at, src_ctx, Timeline::Detached);
        let mut t = at;
        for (kind, ns) in [
            (SpanKind::PoolRingOp, costs.push),
            (SpanKind::PoolRefcount, costs.refc),
        ] {
            t = self
                .tracer
                .charge(kind, t, SimDuration::from_nanos(ns), src_ctx);
        }
        self.tracer.commit_op(t);
        let ring = &mut self.consumers[c.0].ring;
        ring.push_back(RingEntry {
            slot: guard.slot,
            gen: guard.gen,
            published: t,
            src_ctx,
        });
        let depth = ring.len() as u64;
        self.tracer.observe(Hist::PoolRingDepth, depth);
        Ok(t)
    }

    /// Pop the next published entry from consumer `c`'s ring, if one is
    /// visible at virtual time `at` (entries published later are not yet
    /// observable). Returns the guard now held by the consumer — release
    /// it with [`Holder::Consumer`] when done. An empty poll charges
    /// only the ring pop. Emits the `slot_publish_consume` causal edge.
    pub fn consume_at(
        &mut self,
        c: ConsumerId,
        at: SimTime,
    ) -> Result<(Option<SlotGuard>, SimTime), PoolError> {
        if !self.consumers.get(c.0).is_some_and(|s| s.alive) {
            return Err(PoolError::ConsumerGone { consumer: c.0 });
        }
        let ctx = self.consumer_ctx(c.0);
        let costs = self.costs;
        let visible = self.consumers[c.0]
            .ring
            .front()
            .is_some_and(|e| e.published <= at);
        self.tracer
            .begin_op(SpanKind::PoolConsume, at, ctx, Timeline::Detached);
        let pop = SimDuration::from_nanos(costs.pop);
        let t = self.tracer.charge(SpanKind::PoolRingOp, at, pop, ctx);
        if !visible {
            self.tracer.commit_op(t);
            return Ok((None, t));
        }
        let refc = SimDuration::from_nanos(costs.refc);
        let t = self.tracer.charge(SpanKind::PoolRefcount, t, refc, ctx);
        self.tracer.commit_op(t);
        let entry = self.consumers[c.0].ring.pop_front().expect("checked front");
        assert_eq!(
            entry.gen, self.meta[entry.slot as usize].gen,
            "ring entry outlived its slot generation (sweep touched a live consumer)"
        );
        self.tracer.edge(
            EdgeKind::SlotPublishConsume,
            entry.published,
            t,
            entry.src_ctx,
            ctx,
        );
        self.consumers[c.0].holds.push((entry.slot, entry.gen));
        Ok((
            Some(SlotGuard {
                slot: entry.slot,
                gen: entry.gen,
            }),
            t,
        ))
    }

    /// Release one reference to a held slot. When the last reference
    /// drops, the slot's generation is bumped and it returns to the free
    /// list (charged as an extra free-list push). The holder determines
    /// whose hold table the release is debited from.
    pub fn release_at(
        &mut self,
        holder: Holder,
        guard: SlotGuard,
        at: SimTime,
    ) -> Result<SimTime, PoolError> {
        let ctx = match holder {
            Holder::Exporter => self.exporter_ctx(),
            Holder::Consumer(i) => {
                if !self.consumers.get(i).is_some_and(|s| s.alive) {
                    return Err(PoolError::ConsumerGone { consumer: i });
                }
                self.consumer_ctx(i)
            }
        };
        {
            let m = self.meta[guard.slot as usize];
            if m.gen != guard.gen || m.refs == 0 {
                return Err(PoolError::StaleGuard { slot: guard.slot });
            }
        }
        if let Holder::Consumer(i) = holder {
            let holds = &mut self.consumers[i].holds;
            let pos = holds
                .iter()
                .position(|&(s, g)| s == guard.slot && g == guard.gen)
                .ok_or(PoolError::StaleGuard { slot: guard.slot })?;
            holds.remove(pos);
        }
        let costs = self.costs;
        self.tracer
            .begin_op(SpanKind::PoolRelease, at, ctx, Timeline::Detached);
        let refc = SimDuration::from_nanos(costs.refc);
        let mut t = self.tracer.charge(SpanKind::PoolRefcount, at, refc, ctx);
        let freed = {
            let m = &mut self.meta[guard.slot as usize];
            m.refs -= 1;
            m.refs == 0
        };
        if freed {
            let scan = SimDuration::from_nanos(costs.scan);
            t = self.tracer.charge(SpanKind::PoolSlotScan, t, scan, ctx);
            self.meta[guard.slot as usize].gen += 1;
            self.free.push(guard.slot);
        }
        self.tracer.commit_op(t);
        self.tracer.count(Counter::PoolReleases, 1);
        Ok(t)
    }

    /// Drain the system's crash notices and reclaim every slot reference
    /// a dead consumer still held — consumed holds and unconsumed ring
    /// entries alike — exactly once. One `pool_sweep` frame is charged
    /// per crashed consumer with outstanding references, tiled by one
    /// `pool_sweep_slot` leaf per reference, and each reclaimed
    /// reference emits a `crash_slot_sweep` edge from the crash instant.
    /// Notices that match no live consumer (exporter crashes, unrelated
    /// enclaves) are ignored. Returns the number of references swept and
    /// the completion time.
    pub fn sweep_at(&mut self, sys: &mut System, at: SimTime) -> (u64, SimTime) {
        let mut swept = 0u64;
        let mut t_end = at;
        for notice in sys.drain_crash_notices() {
            for i in 0..self.consumers.len() {
                let c = &self.consumers[i];
                if !c.alive
                    || c.proc.enclave.0 != notice.slot
                    || notice.pid.is_some_and(|pid| pid != c.proc.pid.0)
                {
                    continue;
                }
                let ctx = self.consumer_ctx(i);
                let dead = &mut self.consumers[i];
                dead.alive = false;
                let mut refs: Vec<(u32, u64)> = std::mem::take(&mut dead.holds);
                refs.extend(dead.ring.drain(..).map(|e| (e.slot, e.gen)));
                if refs.is_empty() {
                    continue;
                }
                // Charges start no earlier than the crash itself, so the
                // crash→sweep edges stay monotone even when the sweeping
                // op's own timestamp lags the injected crash.
                let mut t = at.max(notice.at);
                let ex_ctx = self.exporter_ctx();
                self.tracer
                    .begin_op(SpanKind::PoolSweep, t, ex_ctx, Timeline::Detached);
                let d = SimDuration::from_nanos(self.costs.sweep_slot);
                for &(slot, gen) in &refs {
                    t = self.tracer.charge(SpanKind::PoolSweepSlot, t, d, ex_ctx);
                    self.tracer
                        .edge(EdgeKind::CrashSlotSweep, notice.at, t, ctx, ex_ctx);
                    let m = &mut self.meta[slot as usize];
                    assert_eq!(m.gen, gen, "sweep found a recycled generation");
                    assert!(m.refs > 0, "sweep found a zero-ref hold");
                    m.refs -= 1;
                    if m.refs == 0 {
                        m.gen += 1;
                        self.free.push(slot);
                    }
                }
                self.tracer.commit_op(t);
                swept += refs.len() as u64;
                t_end = t_end.max(t);
            }
        }
        if swept > 0 {
            self.tracer.count(Counter::PoolSlotsSwept, swept);
        }
        (swept, t_end)
    }

    /// Audit the pool for leaks: every slot must be back on the free
    /// list with zero references, every live consumer's ring and hold
    /// table must be empty. Call at end of run, after all guards are
    /// released and crashes swept.
    pub fn leak_check(&self) -> Result<(), String> {
        let mut leaked: Vec<u32> = (0..self.meta.len() as u32)
            .filter(|&s| self.meta[s as usize].refs != 0)
            .collect();
        leaked.sort_unstable();
        if !leaked.is_empty() {
            return Err(format!("slots with live refs at end of run: {leaked:?}"));
        }
        if self.free.len() != self.meta.len() {
            return Err(format!(
                "free list holds {} of {} slots at end of run",
                self.free.len(),
                self.meta.len()
            ));
        }
        for (i, c) in self.consumers.iter().enumerate() {
            if c.alive && (!c.ring.is_empty() || !c.holds.is_empty()) {
                return Err(format!(
                    "live consumer {i} still holds {} ring entries and {} holds",
                    c.ring.len(),
                    c.holds.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem::SystemBuilder;

    const MIB: u64 = 1 << 20;
    const T0: SimTime = SimTime::ZERO;

    fn sys3(tracer: &TraceHandle) -> System {
        SystemBuilder::new()
            .linux_management("linux", 4, 256 * MIB)
            .kitten_cokernel("k0", 1, 64 * MIB)
            .kitten_cokernel("k1", 1, 64 * MIB)
            .with_tracer(tracer.clone())
            .build()
            .unwrap()
    }

    /// A pool exported from linux with one consumer on each kitten.
    fn pool_on(
        sys: &mut System,
        slots: u32,
        ring_cap: usize,
    ) -> (BufferPool, ProcessRef, ConsumerId, ConsumerId, SimTime) {
        let linux = sys.enclave_by_name("linux").unwrap();
        let k0 = sys.enclave_by_name("k0").unwrap();
        let k1 = sys.enclave_by_name("k1").unwrap();
        let producer = sys.spawn_process(linux, 64 * MIB).unwrap();
        let c0 = sys.spawn_process(k0, 16 * MIB).unwrap();
        let c1 = sys.spawn_process(k1, 16 * MIB).unwrap();
        let (mut pool, t) =
            BufferPool::create_at(sys, producer, slots, 16 * 1024, Some("pool"), ring_cap, T0)
                .unwrap();
        let (a, t) = pool.join_at(sys, c0, t).unwrap();
        let (b, t) = pool.join_at(sys, c1, t).unwrap();
        (pool, producer, a, b, t)
    }

    #[test]
    fn acquire_publish_consume_release_roundtrip_is_zero_copy() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        let (mut pool, producer, c0, _c1, t) = pool_on(&mut sys, 8, 8);
        let (guard, t) = pool.acquire_at(t).unwrap();
        // Producer fills the slab in place…
        let va = pool.slab_va(Holder::Exporter, guard.slot()).unwrap();
        sys.write(producer, va, b"zero-copy payload").unwrap();
        let t = pool.publish_at(c0, guard, t).unwrap();
        // …and the consumer reads the same frames through its attachment.
        let (got, t) = pool.consume_at(c0, t).unwrap();
        let guard = got.expect("entry visible after publish");
        let cva = pool.slab_va(Holder::Consumer(c0.0), guard.slot()).unwrap();
        let cproc = pool.consumer_proc(c0).unwrap();
        let mut buf = [0u8; 17];
        sys.read(cproc, cva, &mut buf).unwrap();
        assert_eq!(&buf, b"zero-copy payload");
        pool.release_at(Holder::Consumer(c0.0), guard, t).unwrap();
        pool.leak_check().unwrap();
        assert_eq!(tracer.counter(Counter::PoolAcquires), 1);
        assert_eq!(tracer.counter(Counter::PoolReleases), 1);
        assert_eq!(tracer.edge_count(EdgeKind::SlotPublishConsume), 1);
        tracer.audit().expect("conservation");
    }

    #[test]
    fn consume_before_publish_time_sees_nothing() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        let (mut pool, _p, c0, _c1, t) = pool_on(&mut sys, 4, 4);
        let (guard, t) = pool.acquire_at(t).unwrap();
        let published = pool.publish_at(c0, guard, t).unwrap();
        // A poll strictly before the publish completed must not see it.
        let before = SimTime::from_nanos(published.as_nanos() - 1);
        let (got, _) = pool.consume_at(c0, before).unwrap();
        assert_eq!(got, None);
        let (got, t) = pool.consume_at(c0, published).unwrap();
        let guard = got.expect("visible at publish completion");
        pool.release_at(Holder::Consumer(c0.0), guard, t).unwrap();
        pool.leak_check().unwrap();
        tracer.audit().expect("conservation");
    }

    #[test]
    fn exhaustion_ring_caps_and_stale_guards_fail_cleanly() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        // Two slots, single-entry rings: both limits are reachable.
        let (mut pool, _p, c0, _c1, t) = pool_on(&mut sys, 2, 1);
        let (g0, t) = pool.acquire_at(t).unwrap();
        let (g1, t) = pool.acquire_at(t).unwrap();
        assert!(matches!(pool.acquire_at(t), Err(PoolError::Exhausted)));
        // Generation fencing: a forged stale guard is rejected.
        let stale = SlotGuard {
            slot: g0.slot(),
            gen: g0.generation() + 1,
        };
        assert!(matches!(
            pool.release_at(Holder::Exporter, stale, t),
            Err(PoolError::StaleGuard { .. })
        ));
        // Ring capacity: the second publish bounces and returns the
        // guard so the producer can back off without leaking.
        let t = pool.publish_at(c0, g0, t).unwrap();
        let (g1, err) = pool.publish_at(c0, g1, t).unwrap_err();
        assert!(matches!(err, PoolError::RingFull { consumer } if consumer == c0.0));
        let t = pool.release_at(Holder::Exporter, g1, t).unwrap();
        let (got, t) = pool.consume_at(c0, t).unwrap();
        let t = pool
            .release_at(Holder::Consumer(c0.0), got.unwrap(), t)
            .unwrap();
        let _ = t;
        pool.leak_check().unwrap();
        tracer.audit().expect("conservation");
    }

    #[test]
    fn generation_bumps_on_recycle_so_slots_never_alias() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        let (mut pool, _p, _c0, _c1, t) = pool_on(&mut sys, 1, 2);
        let (g, t) = pool.acquire_at(t).unwrap();
        let gen0 = g.generation();
        let t = pool.release_at(Holder::Exporter, g, t).unwrap();
        let (g, t) = pool.acquire_at(t).unwrap();
        assert_eq!(g.slot(), 0, "single-slot pool recycles slot 0");
        assert!(g.generation() > gen0, "recycle must bump the generation");
        pool.release_at(Holder::Exporter, g, t).unwrap();
        pool.leak_check().unwrap();
    }

    #[test]
    fn crashed_consumer_is_swept_exactly_once_with_edges() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        let (mut pool, _p, c0, c1, t) = pool_on(&mut sys, 8, 8);
        // c0 consumes one slot and keeps another in its ring; c1 holds one.
        let (g, t) = pool.acquire_at(t).unwrap();
        let t = pool.publish_at(c0, g, t).unwrap();
        let (held, t) = pool.consume_at(c0, t).unwrap();
        let _held = held.unwrap();
        let (g, t) = pool.acquire_at(t).unwrap();
        let t = pool.publish_at(c0, g, t).unwrap(); // stays in the ring
        let (g1, t) = pool.acquire_at(t).unwrap();
        let t = pool.publish_at(c1, g1, t).unwrap();
        let (g1, t) = pool.consume_at(c1, t).unwrap();
        let g1 = g1.unwrap();

        // Crash c0's enclave. Its held + ringed refs sweep exactly once.
        sys.clock().advance_to(t);
        let k0 = sys.enclave_by_name("k0").unwrap();
        sys.destroy_enclave(k0).unwrap();
        let now = sys.clock().now();
        let (swept, t) = pool.sweep_at(&mut sys, now);
        assert_eq!(swept, 2, "one consumed hold + one ring entry");
        assert!(!pool.consumer_alive(c0));
        assert_eq!(tracer.counter(Counter::PoolSlotsSwept), 2);
        assert_eq!(tracer.edge_count(EdgeKind::CrashSlotSweep), 2);
        // A second sweep finds nothing: notices drain exactly once.
        let (again, t) = pool.sweep_at(&mut sys, t);
        assert_eq!(again, 0);
        // The dead consumer rejects further ops; the live one finishes.
        assert!(matches!(
            pool.consume_at(c0, t),
            Err(PoolError::ConsumerGone { .. })
        ));
        let t = pool.release_at(Holder::Consumer(c1.0), g1, t).unwrap();
        let _ = t;
        pool.leak_check().unwrap();
        tracer.audit().expect("conservation");
    }

    #[test]
    fn sweep_ignores_unrelated_crashes() {
        let tracer = TraceHandle::enabled();
        let mut sys = sys3(&tracer);
        let (mut pool, _p, _c0, c1, t) = pool_on(&mut sys, 4, 4);
        let (g, t) = pool.acquire_at(t).unwrap();
        let t = pool.publish_at(c1, g, t).unwrap();
        // Kill a process that is not a pool consumer (a fresh one on k0).
        let k0 = sys.enclave_by_name("k0").unwrap();
        let bystander = sys.spawn_process(k0, MIB).unwrap();
        sys.clock().advance_to(t);
        sys.crash_process(bystander).unwrap();
        let now = sys.clock().now();
        let (swept, t) = pool.sweep_at(&mut sys, now);
        assert_eq!(swept, 0, "the bystander pid held no pool references");
        assert!(pool.consumer_alive(c1));
        let (g, t) = pool.consume_at(c1, t).unwrap();
        pool.release_at(Holder::Consumer(c1.0), g.unwrap(), t)
            .unwrap();
        pool.leak_check().unwrap();
    }
}
