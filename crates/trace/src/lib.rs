//! Virtual-time tracing and metrics for the XEMEM simulator.
//!
//! Every figure this repo emits is `bytes ÷ virtual time`, so the
//! virtual nanoseconds charged by [`xemem_sim::CostModel`] are the
//! product being measured — and this crate makes them *attributable*.
//! The layer has four parts:
//!
//! 1. **Spans.** Each cross-enclave operation (`make`/`get`/`attach`/
//!    `detach`/…, revocation, fault injection) opens an *op frame*;
//!    every site inside the simulator that advances a virtual-time
//!    cursor records a *leaf* (IPI wait/transfer, hypercall, PCI copy,
//!    route forwarding, name-server processing and backoff, page-table
//!    walk/install, RB-tree structure time, …). Committed spans land in
//!    per-enclave ring buffers, tagged with enclave, process, segment
//!    and operation kind. The rings sit behind the collector's lock,
//!    next to the per-thread op frames every hook already locks, and
//!    allocate as they are written.
//! 2. **Metrics.** Global counters (retries, quarantined/returned
//!    frames, bytes moved through attached mappings, …) and log₂
//!    virtual-time histograms (attach latency, fault-in latency,
//!    name-server retries per op), queryable from tests.
//! 3. **Exporters.** One per format, each over a list of runs keyed by
//!    run id: [`merge_chrome_trace_json`] emits the chrome://tracing
//!    "Trace Event Format" (complete `"X"` events);
//!    [`merge_folded_stacks`] emits `op;leaf <ns>` lines for flamegraph
//!    tools; [`merge_obs_report`] emits the `xemem-obs` causal report.
//! 4. **Conservation auditor.** Four atomic sums — root and leaf
//!    nanoseconds on the *clock* timeline (ops that advance the shared
//!    [`xemem_sim::Clock`]) and on the *detached* timeline (fig6-style
//!    per-pair timelines and injected faults) — let
//!    [`TraceHandle::audit`] assert Σ(leaf durations) == Σ(op
//!    durations) exactly, and [`TraceHandle::audit_clock`] assert that
//!    the clock-timeline ops tile the simulator's total elapsed virtual
//!    time bit-for-bit. A missed or double-counted charge site anywhere
//!    in the simulator trips the audit.
//!
//! # Zero overhead when disabled
//!
//! A [`TraceHandle`] is a cloneable `Option<Arc<Collector>>`. Disabled
//! handles take an inlined `None` branch on every hook: no allocation,
//! no formatting, no locking. The simulator's virtual-time arithmetic
//! is identical either way — tracing *observes* durations that are
//! computed regardless, so enabling it can never change a figure.
//!
//! # Discipline
//!
//! * An op frame is opened with [`TraceHandle::begin_op`] and closed
//!   with [`TraceHandle::commit_op`] (on success) or
//!   [`TraceHandle::abort_op`] (on error). Aborted frames discard their
//!   leaves — mirroring the simulator's rule that failed operations
//!   never advance the clock.
//! * Leaves recorded while no frame is open on the current thread
//!   *self-root*: they are charged to the detached timeline as their
//!   own root, so direct `*_at` callers stay conservation-clean.
//! * Frames nest: an injected fault serviced in the middle of an op
//!   opens its own detached frame and commits independently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use xemem_sim::{SimDuration, SimTime};

// ----------------------------------------------------------------------
// Span taxonomy
// ----------------------------------------------------------------------

/// What a span measures — either a whole cross-enclave operation (a
/// *root*) or one charged component inside it (a *leaf*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    // --- operation roots -------------------------------------------------
    /// `xpmem_make`: segment export + name-server registration.
    Make,
    /// `xpmem_remove`: deregistration + revocation of remote attachments.
    Remove,
    /// `xpmem_search`: name → segid lookup.
    Search,
    /// `xpmem_get` / `xpmem_get_mode`: permission grant.
    Get,
    /// `xpmem_release`: permit release.
    Release,
    /// `xpmem_attach`: the full four-leg attachment protocol.
    Attach,
    /// `xpmem_detach`: unmap + bookkeeping.
    Detach,
    /// Process spawn (kernel process-table + address-space setup).
    Spawn,
    /// Orderly process exit (detach/release/remove sweep + kernel exit).
    Exit,
    /// Buffer allocation in the owning kernel.
    AllocBuffer,
    /// `System::write` through a local or attached mapping.
    Write,
    /// `System::read` through a local or attached mapping.
    Read,
    /// Deliberate `crash_process` (API-driven, clock timeline).
    CrashProcess,
    /// Deliberate `destroy_enclave` (API-driven, clock timeline).
    DestroyEnclave,
    /// Fault-injected enclave crash (detached timeline).
    InjectedCrash,
    /// Fault-injected process kill (detached timeline).
    InjectedKill,
    /// Enclave registration with the name server at boot.
    Register,
    // --- leaves ----------------------------------------------------------
    /// Name-server exponential-backoff wait during an outage.
    NsBackoff,
    /// Name-server request processing time.
    NsProcess,
    /// Fixed protocol bookkeeping (registration records, permit / stale
    /// cache handling).
    Bookkeeping,
    /// Queueing delay waiting for the Pisces core-0 message channel.
    IpiWait,
    /// IPI + shared-channel message/payload transfer time.
    IpiXfer,
    /// Guest→host hypercall through the virtual PCI device.
    Hypercall,
    /// Host→guest interrupt injection through the virtual PCI device.
    GuestIrq,
    /// PFN-list copy across the virtual PCI BAR.
    PciCopy,
    /// Store-and-forward hop through an intermediate router enclave.
    RouteForward,
    /// Timeout + re-send of a dropped message.
    Retransmit,
    /// Exporter-side page-table walk building the PFN list.
    ServeWalk,
    /// Exporter-side walk when the exporter lives inside a VM
    /// (hypercall + VMM translation + guest walk, aggregated).
    GuestServe,
    /// Attacher-side mapping install (PTE writes + bookkeeping).
    MapInstall,
    /// VMM memory-map structure time (RB-tree / radix insertions).
    MapStructure,
    /// VMM memory-map bookkeeping per page.
    MapBookkeep,
    /// VMM → guest notification (PCI copy + IRQ) of a new mapping.
    VmNotify,
    /// Guest kernel mapping install inside a VM.
    GuestMap,
    /// Lazy (demand-paged) attach: address-space reservation only.
    MmapReserve,
    /// Attacher-side unmap during detach.
    Unmap,
    /// Contention surcharge modeled outside the protocol (fig6 sweep).
    MapContention,
    /// Quarantine of a crashed process's exported frames.
    Quarantine,
    /// Owner-side revocation bookkeeping per remote attachment site.
    RevokeBookkeeping,
    /// Attacher-side reap: unmap + reaper bookkeeping.
    ReapUnmap,
    /// Kernel process-creation cost.
    KernelSpawn,
    /// Kernel process-exit cost.
    KernelExit,
    /// DRAM streaming + demand fault-in for reads/writes.
    DramStream,
    /// Client-side hash-ring probe picking the name-service shard.
    NsShardRoute,
    /// Client-side lease-cache check (expiry + epoch comparison).
    NsLeaseCheck,
    /// Leader-side lease grant/renewal bookkeeping.
    NsLeaseRenew,
    /// Buffer-pool slot acquire (free-list pop + init + refcount), a root.
    PoolAcquire,
    /// Buffer-pool slot release (refcount drop, maybe free-list push), a root.
    PoolRelease,
    /// Buffer-pool ring publish (push + refcount take), a root.
    PoolPublish,
    /// Buffer-pool ring consume (pop + refcount drop), a root.
    PoolConsume,
    /// Exporter-side sweep of a crashed consumer's pool references, a root.
    PoolSweep,
    /// Free-list scan/pop/push inside a pool op.
    PoolSlotScan,
    /// Slot header initialization on first acquire.
    PoolSlotInit,
    /// One refcount increment/decrement on a slot header.
    PoolRefcount,
    /// One SPSC/MPSC ring push or pop.
    PoolRingOp,
    /// One slot reclaimed by the crash sweep.
    PoolSweepSlot,
    /// Extra page-table-walk latency charged by the source tier of the
    /// walked frames (zero-duration on flat DRAM, so never emitted there).
    TierWalk,
    /// Extra PTE-install latency charged by the tier of the mapped frames.
    TierMap,
    /// Extra streaming latency for data moving through a non-DRAM tier.
    TierStream,
    /// One extent-granular tier migration (remap + copy), a root.
    MigrateExtent,
    /// The data copy between tiers inside a migration.
    MigrateCopy,
    /// The page-table re-pointing inside a migration.
    MigrateRemap,
}

impl SpanKind {
    /// Number of span kinds (for dense per-kind arrays).
    pub const COUNT: usize = SpanKind::MigrateRemap as usize + 1;

    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Make,
        SpanKind::Remove,
        SpanKind::Search,
        SpanKind::Get,
        SpanKind::Release,
        SpanKind::Attach,
        SpanKind::Detach,
        SpanKind::Spawn,
        SpanKind::Exit,
        SpanKind::AllocBuffer,
        SpanKind::Write,
        SpanKind::Read,
        SpanKind::CrashProcess,
        SpanKind::DestroyEnclave,
        SpanKind::InjectedCrash,
        SpanKind::InjectedKill,
        SpanKind::Register,
        SpanKind::NsBackoff,
        SpanKind::NsProcess,
        SpanKind::Bookkeeping,
        SpanKind::IpiWait,
        SpanKind::IpiXfer,
        SpanKind::Hypercall,
        SpanKind::GuestIrq,
        SpanKind::PciCopy,
        SpanKind::RouteForward,
        SpanKind::Retransmit,
        SpanKind::ServeWalk,
        SpanKind::GuestServe,
        SpanKind::MapInstall,
        SpanKind::MapStructure,
        SpanKind::MapBookkeep,
        SpanKind::VmNotify,
        SpanKind::GuestMap,
        SpanKind::MmapReserve,
        SpanKind::Unmap,
        SpanKind::MapContention,
        SpanKind::Quarantine,
        SpanKind::RevokeBookkeeping,
        SpanKind::ReapUnmap,
        SpanKind::KernelSpawn,
        SpanKind::KernelExit,
        SpanKind::DramStream,
        SpanKind::NsShardRoute,
        SpanKind::NsLeaseCheck,
        SpanKind::NsLeaseRenew,
        SpanKind::PoolAcquire,
        SpanKind::PoolRelease,
        SpanKind::PoolPublish,
        SpanKind::PoolConsume,
        SpanKind::PoolSweep,
        SpanKind::PoolSlotScan,
        SpanKind::PoolSlotInit,
        SpanKind::PoolRefcount,
        SpanKind::PoolRingOp,
        SpanKind::PoolSweepSlot,
        SpanKind::TierWalk,
        SpanKind::TierMap,
        SpanKind::TierStream,
        SpanKind::MigrateExtent,
        SpanKind::MigrateCopy,
        SpanKind::MigrateRemap,
    ];

    /// Stable snake-case name (used by both exporters).
    pub const fn as_str(self) -> &'static str {
        match self {
            SpanKind::Make => "make",
            SpanKind::Remove => "remove",
            SpanKind::Search => "search",
            SpanKind::Get => "get",
            SpanKind::Release => "release",
            SpanKind::Attach => "attach",
            SpanKind::Detach => "detach",
            SpanKind::Spawn => "spawn",
            SpanKind::Exit => "exit",
            SpanKind::AllocBuffer => "alloc_buffer",
            SpanKind::Write => "write",
            SpanKind::Read => "read",
            SpanKind::CrashProcess => "crash_process",
            SpanKind::DestroyEnclave => "destroy_enclave",
            SpanKind::InjectedCrash => "injected_crash",
            SpanKind::InjectedKill => "injected_kill",
            SpanKind::Register => "register",
            SpanKind::NsBackoff => "ns_backoff",
            SpanKind::NsProcess => "ns_process",
            SpanKind::Bookkeeping => "bookkeeping",
            SpanKind::IpiWait => "ipi_wait",
            SpanKind::IpiXfer => "ipi_xfer",
            SpanKind::Hypercall => "hypercall",
            SpanKind::GuestIrq => "guest_irq",
            SpanKind::PciCopy => "pci_copy",
            SpanKind::RouteForward => "route_forward",
            SpanKind::Retransmit => "retransmit",
            SpanKind::ServeWalk => "serve_walk",
            SpanKind::GuestServe => "guest_serve",
            SpanKind::MapInstall => "map_install",
            SpanKind::MapStructure => "map_structure",
            SpanKind::MapBookkeep => "map_bookkeep",
            SpanKind::VmNotify => "vm_notify",
            SpanKind::GuestMap => "guest_map",
            SpanKind::MmapReserve => "mmap_reserve",
            SpanKind::Unmap => "unmap",
            SpanKind::MapContention => "map_contention",
            SpanKind::Quarantine => "quarantine",
            SpanKind::RevokeBookkeeping => "revoke_bookkeeping",
            SpanKind::ReapUnmap => "reap_unmap",
            SpanKind::KernelSpawn => "kernel_spawn",
            SpanKind::KernelExit => "kernel_exit",
            SpanKind::DramStream => "dram_stream",
            SpanKind::NsShardRoute => "ns_shard_route",
            SpanKind::NsLeaseCheck => "ns_lease_check",
            SpanKind::NsLeaseRenew => "ns_lease_renew",
            SpanKind::PoolAcquire => "pool_acquire",
            SpanKind::PoolRelease => "pool_release",
            SpanKind::PoolPublish => "pool_publish",
            SpanKind::PoolConsume => "pool_consume",
            SpanKind::PoolSweep => "pool_sweep",
            SpanKind::PoolSlotScan => "pool_slot_scan",
            SpanKind::PoolSlotInit => "pool_slot_init",
            SpanKind::PoolRefcount => "pool_refcount",
            SpanKind::PoolRingOp => "pool_ring_op",
            SpanKind::PoolSweepSlot => "pool_sweep_slot",
            SpanKind::TierWalk => "tier_walk",
            SpanKind::TierMap => "tier_map",
            SpanKind::TierStream => "tier_stream",
            SpanKind::MigrateExtent => "migrate_extent",
            SpanKind::MigrateCopy => "migrate_copy",
            SpanKind::MigrateRemap => "migrate_remap",
        }
    }
}

/// A causal dependency between two points in virtual time, recorded at
/// the site that creates the dependency. Edges are the cross-op (and
/// cross-enclave) glue the flat span stream cannot express: together
/// with the per-span parent links they form a per-run DAG the
/// `xemem-obs` toolkit walks for critical-path extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EdgeKind {
    /// Cross-enclave message hop: send completes at `src` on the source
    /// enclave, delivery lands at `dst` on the destination enclave.
    SendRecv,
    /// Lease revocation notice (`src` = notice delivered) to its
    /// acknowledgement (`dst` = ack received by the owner).
    RevokeAck,
    /// Enclave crash (`src`) to the name-service failover it forced on
    /// one shard (`dst`, the moment the dead leader was detected).
    CrashFailover,
    /// Shard failover (`src`) to the promoted leader answering again
    /// (`dst`, end of the election dark window).
    FailoverPromotion,
    /// One name-service backoff wait: `src` is where the retry loop
    /// started sleeping, `dst` is where the retry fires.
    BackoffRetry,
    /// PDES window barrier (`src`, last event of the closed window) to
    /// the engine resuming at the next window's start (`dst`).
    WindowResume,
    /// Buffer-pool ring publish (`src`, push visible) to the consume
    /// that dequeued that entry (`dst`).
    SlotPublishConsume,
    /// Consumer crash (`src`) to the exporter-side sweep reclaiming one
    /// of its outstanding pool slots (`dst`).
    CrashSlotSweep,
    /// Owner-side tier migration of a segment extent (`src`, migration
    /// complete) to one attached enclave's page tables being re-pointed
    /// at the new frames (`dst`).
    MigrateRemap,
}

impl EdgeKind {
    /// Number of edge kinds (for dense per-kind arrays).
    pub const COUNT: usize = EdgeKind::MigrateRemap as usize + 1;

    /// All kinds, in discriminant order.
    pub const ALL: [EdgeKind; EdgeKind::COUNT] = [
        EdgeKind::SendRecv,
        EdgeKind::RevokeAck,
        EdgeKind::CrashFailover,
        EdgeKind::FailoverPromotion,
        EdgeKind::BackoffRetry,
        EdgeKind::WindowResume,
        EdgeKind::SlotPublishConsume,
        EdgeKind::CrashSlotSweep,
        EdgeKind::MigrateRemap,
    ];

    /// Stable snake-case name (used by the obs-report exporter).
    pub const fn as_str(self) -> &'static str {
        match self {
            EdgeKind::SendRecv => "send_recv",
            EdgeKind::RevokeAck => "revoke_ack",
            EdgeKind::CrashFailover => "crash_failover",
            EdgeKind::FailoverPromotion => "failover_promotion",
            EdgeKind::BackoffRetry => "backoff_retry",
            EdgeKind::WindowResume => "window_resume",
            EdgeKind::SlotPublishConsume => "slot_publish_consume",
            EdgeKind::CrashSlotSweep => "crash_slot_sweep",
            EdgeKind::MigrateRemap => "migrate_remap",
        }
    }
}

/// One causal edge: virtual time `src` on `src_ctx` happens-before
/// virtual time `dst` on `dst_ctx`. `Copy` so ring slots can be written
/// and snapshotted without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// What dependency this edge records.
    pub kind: EdgeKind,
    /// Cause time.
    pub src: SimTime,
    /// Effect time (`>= src`).
    pub dst: SimTime,
    /// Identity at the cause site.
    pub src_ctx: Ctx,
    /// Identity at the effect site.
    pub dst_ctx: Ctx,
    /// For a [`EdgeKind::SendRecv`] hop: the message's code, defined by
    /// the protocol layer above this crate (0 = unnamed; always 0 on
    /// other kinds). Exporters do not print it.
    pub msg: u8,
    /// For a [`EdgeKind::SendRecv`] hop: the message's wire bytes
    /// (0 otherwise). Exporters do not print it.
    pub bytes: u64,
}

/// Which virtual timeline a span was charged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeline {
    /// Ops that advance the shared [`xemem_sim::Clock`]; their roots
    /// must tile the clock's total elapsed time exactly.
    Clock,
    /// Per-pair fig6 timelines and injected faults: virtual time that
    /// is measured but never pushed into the shared clock.
    Detached,
}

impl Timeline {
    /// Stable name (used by the obs-report exporter).
    pub const fn as_str(self) -> &'static str {
        match self {
            Timeline::Clock => "clock",
            Timeline::Detached => "detached",
        }
    }
}

/// Identity tags attached to a span: which enclave (slot index), which
/// process (pid within the enclave) and which segment it concerns.
/// Zero means "not applicable".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Enclave slot index (also the chrome-trace `pid` lane).
    pub enclave: u32,
    /// Process id within the enclave (chrome-trace `tid` lane).
    pub pid: u32,
    /// Segment id, if the span concerns one.
    pub segid: u64,
}

impl Ctx {
    /// No identity (system-wide work).
    pub const NONE: Ctx = Ctx {
        enclave: 0,
        pid: 0,
        segid: 0,
    };

    /// Tag with an enclave only.
    pub fn enclave(slot: usize) -> Ctx {
        Ctx {
            enclave: slot as u32,
            pid: 0,
            segid: 0,
        }
    }

    /// Tag with enclave + process.
    pub fn proc(slot: usize, pid: u32) -> Ctx {
        Ctx {
            enclave: slot as u32,
            pid,
            segid: 0,
        }
    }

    /// Tag with enclave + process + segment.
    pub fn seg(slot: usize, pid: u32, segid: u64) -> Ctx {
        Ctx {
            enclave: slot as u32,
            pid,
            segid,
        }
    }
}

/// One recorded span. `Copy` so ring-buffer slots can be written and
/// snapshotted without allocation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual duration.
    pub dur: SimDuration,
    /// The operation this span belongs to (== `kind` for roots and
    /// self-rooted leaves).
    pub op: SpanKind,
    /// What this record measures.
    pub kind: SpanKind,
    /// True for op-level aggregates whose duration is the sum of their
    /// leaves (excluded from folded-stack output to avoid double
    /// counting).
    pub root: bool,
    /// True for leaves charged outside any op frame: the span is both
    /// its own root and its own leaf for conservation purposes.
    pub self_rooted: bool,
    /// Which timeline the span's nanoseconds were charged against.
    pub timeline: Timeline,
    /// Parent link: the kind of the op frame this span was recorded
    /// under (== `kind` for roots and self-rooted leaves).
    pub parent_kind: SpanKind,
    /// Parent link: the start time of that op frame (== `start` for
    /// roots and self-rooted leaves). `(parent_kind, parent_start,
    /// timeline)` identifies the parent root span by content, so the
    /// link survives the content-sorted, ring-merged export.
    pub parent_start: SimTime,
    /// Identity tags.
    pub ctx: Ctx,
}

// ----------------------------------------------------------------------
// Counters and histograms
// ----------------------------------------------------------------------

/// Monotonic global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// Name-server RPC retries taken (across all backoff loops).
    NsRetries,
    /// Total virtual nanoseconds spent in name-server backoff waits.
    NsBackoffNs,
    /// Lookups served locally under a still-valid lease (no round trip
    /// to the shard leader).
    NsLeaseServes,
    /// Exported frames moved to quarantine on owner crash.
    FramesQuarantined,
    /// Quarantined frames returned to their allocator once the
    /// revocation round reaped every remote attachment.
    FramesReturned,
    /// Bytes read through live cross-enclave attachments.
    BytesReadAttached,
    /// Bytes written through live cross-enclave attachments.
    BytesWrittenAttached,
    /// Pages demand-faulted by the FWK (Linux-like) kernel.
    FaultsServed,
    /// Messages re-sent after an injected drop.
    Retransmits,
    /// Duplicate deliveries injected by the fault plan.
    DupDeliveries,
    /// Revocation notices sent to remote attachment sites.
    RevokeNotices,
    /// Remote attachments reaped after revocation.
    Reaps,
    /// Pages installed by the LWK eager attach path (PTE writes into
    /// Kitten's attachment arena).
    LwkAttachPages,
    /// Buffer-pool slots acquired.
    PoolAcquires,
    /// Buffer-pool slot references released.
    PoolReleases,
    /// Buffer-pool slots reclaimed by the crash sweep.
    PoolSlotsSwept,
    /// Extent-granular tier migrations committed.
    TierMigrations,
    /// Pages moved between memory tiers.
    TierPagesMigrated,
    /// Bytes copied between memory tiers by migrations.
    TierBytesCopied,
    /// VM attaches whose guest-map batch was held, its counts computed in
    /// closed form.
    GuestMapBatchesHeld,
    /// VM attaches whose guest-map batch was linked for real.
    GuestMapBatchesLinked,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = Counter::GuestMapBatchesLinked as usize + 1;

    /// All counters, in discriminant order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::NsRetries,
        Counter::NsBackoffNs,
        Counter::NsLeaseServes,
        Counter::FramesQuarantined,
        Counter::FramesReturned,
        Counter::BytesReadAttached,
        Counter::BytesWrittenAttached,
        Counter::FaultsServed,
        Counter::Retransmits,
        Counter::DupDeliveries,
        Counter::RevokeNotices,
        Counter::Reaps,
        Counter::LwkAttachPages,
        Counter::PoolAcquires,
        Counter::PoolReleases,
        Counter::PoolSlotsSwept,
        Counter::TierMigrations,
        Counter::TierPagesMigrated,
        Counter::TierBytesCopied,
        Counter::GuestMapBatchesHeld,
        Counter::GuestMapBatchesLinked,
    ];

    /// Stable snake-case name.
    pub const fn as_str(self) -> &'static str {
        match self {
            Counter::NsRetries => "ns_retries",
            Counter::NsBackoffNs => "ns_backoff_ns",
            Counter::NsLeaseServes => "ns_lease_serves",
            Counter::FramesQuarantined => "frames_quarantined",
            Counter::FramesReturned => "frames_returned",
            Counter::BytesReadAttached => "bytes_read_attached",
            Counter::BytesWrittenAttached => "bytes_written_attached",
            Counter::FaultsServed => "faults_served",
            Counter::Retransmits => "retransmits",
            Counter::DupDeliveries => "dup_deliveries",
            Counter::RevokeNotices => "revoke_notices",
            Counter::Reaps => "reaps",
            Counter::LwkAttachPages => "lwk_attach_pages",
            Counter::PoolAcquires => "pool_acquires",
            Counter::PoolReleases => "pool_releases",
            Counter::PoolSlotsSwept => "pool_slots_swept",
            Counter::TierMigrations => "tier_migrations",
            Counter::TierPagesMigrated => "tier_pages_migrated",
            Counter::TierBytesCopied => "tier_bytes_copied",
            Counter::GuestMapBatchesHeld => "guest_map_batches_held",
            Counter::GuestMapBatchesLinked => "guest_map_batches_linked",
        }
    }
}

/// Virtual-time (and count) histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Hist {
    /// End-to-end attach latency, virtual ns.
    AttachNs,
    /// Detach latency, virtual ns.
    DetachNs,
    /// FWK demand fault-in latency per populate call, virtual ns.
    FaultInNs,
    /// Name-server retries taken per op that hit an outage.
    NsRetriesPerOp,
    /// Ring occupancy observed at each pool publish (depth highwater
    /// lives in the top populated bucket).
    PoolRingDepth,
    /// End-to-end latency of one extent migration, virtual ns.
    MigrateNs,
}

impl Hist {
    /// Number of histograms.
    pub const COUNT: usize = Hist::MigrateNs as usize + 1;

    /// All histograms, in discriminant order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::AttachNs,
        Hist::DetachNs,
        Hist::FaultInNs,
        Hist::NsRetriesPerOp,
        Hist::PoolRingDepth,
        Hist::MigrateNs,
    ];

    /// Stable snake-case name.
    pub const fn as_str(self) -> &'static str {
        match self {
            Hist::AttachNs => "attach_ns",
            Hist::DetachNs => "detach_ns",
            Hist::FaultInNs => "fault_in_ns",
            Hist::NsRetriesPerOp => "ns_retries_per_op",
            Hist::PoolRingDepth => "pool_ring_depth",
            Hist::MigrateNs => "migrate_ns",
        }
    }
}

/// Per-shard name-service counters: everything the global `Ns*`
/// counters aggregate, attributed to the shard a request was routed to,
/// so a sick shard is distinguishable from a sick service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardCounter {
    /// Lookups (search / get) routed to or served on behalf of this
    /// shard, cached and remote alike.
    Lookups,
    /// Backoff retries taken against this shard.
    Retries,
    /// Virtual nanoseconds spent backing off against this shard.
    BackoffNs,
    /// Lookups served locally under a still-valid lease.
    LeaseServes,
    /// Leases granted or renewed by this shard's leader.
    LeaseGrants,
    /// Cached entries found expired or epoch-fenced, forcing a
    /// revalidation round trip.
    LeaseExpirations,
    /// Lease revocation notices sent on behalf of this shard.
    LeaseRevocations,
    /// Leader promotions this shard went through.
    Failovers,
    /// Registrations lost to failover (unreplicated at leader death).
    LostRegistrations,
}

impl ShardCounter {
    /// Number of per-shard counters.
    pub const COUNT: usize = ShardCounter::LostRegistrations as usize + 1;

    /// All per-shard counters, in discriminant order.
    pub const ALL: [ShardCounter; ShardCounter::COUNT] = [
        ShardCounter::Lookups,
        ShardCounter::Retries,
        ShardCounter::BackoffNs,
        ShardCounter::LeaseServes,
        ShardCounter::LeaseGrants,
        ShardCounter::LeaseExpirations,
        ShardCounter::LeaseRevocations,
        ShardCounter::Failovers,
        ShardCounter::LostRegistrations,
    ];

    /// Stable snake-case name.
    pub const fn as_str(self) -> &'static str {
        match self {
            ShardCounter::Lookups => "lookups",
            ShardCounter::Retries => "retries",
            ShardCounter::BackoffNs => "backoff_ns",
            ShardCounter::LeaseServes => "lease_serves",
            ShardCounter::LeaseGrants => "lease_grants",
            ShardCounter::LeaseExpirations => "lease_expirations",
            ShardCounter::LeaseRevocations => "lease_revocations",
            ShardCounter::Failovers => "failovers",
            ShardCounter::LostRegistrations => "lost_registrations",
        }
    }
}

/// Name-service shards tracked individually in the registry; lookups
/// against shard indices past the last bucket fold into it.
pub const MAX_SHARDS: usize = 32;

/// Bucket count for the log₂ histograms: bucket 0 holds zeros, bucket
/// `k` holds values with `floor(log2(v)) == k - 1`.
pub const HIST_BUCKETS: usize = 65;

struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one histogram. `Eq` so parallel-vs-serial
/// equivalence tests can compare whole registries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Log₂ buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the p-th percentile
    /// (`p` in 0..=100), or 0 when empty: the smallest
    /// [`bucket_bound`] covering at least `ceil(count·p/100)` (and at
    /// least one) observations.
    pub fn percentile_bound(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p as u64).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }
}

/// Inclusive upper bound of log₂ bucket `idx` (see [`HIST_BUCKETS`]):
/// 0 for bucket 0, `2^idx - 1` below the top, `u64::MAX` for the top
/// bucket, which holds every value from `2^63` up.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

// ----------------------------------------------------------------------
// Conservation sums
// ----------------------------------------------------------------------

/// The four conservation sums, in nanoseconds. On each timeline the
/// invariant is `leaf == root` exactly; on the clock timeline `root`
/// must additionally equal the simulator's elapsed virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationSums {
    /// Σ committed op durations on the clock timeline.
    pub clock_root_ns: u64,
    /// Σ leaf durations inside clock-timeline ops.
    pub clock_leaf_ns: u64,
    /// Σ committed op durations (and self-rooted leaves) on the
    /// detached timeline.
    pub detached_root_ns: u64,
    /// Σ leaf durations on the detached timeline.
    pub detached_leaf_ns: u64,
}

impl ConservationSums {
    /// Total attributed virtual nanoseconds across both timelines.
    pub fn total_attributed_ns(&self) -> u64 {
        self.clock_root_ns + self.detached_root_ns
    }

    fn delta_since(&self, base: &ConservationSums) -> ConservationSums {
        ConservationSums {
            clock_root_ns: self.clock_root_ns - base.clock_root_ns,
            clock_leaf_ns: self.clock_leaf_ns - base.clock_leaf_ns,
            detached_root_ns: self.detached_root_ns - base.detached_root_ns,
            detached_leaf_ns: self.detached_leaf_ns - base.detached_leaf_ns,
        }
    }

    fn check(&self, clock_elapsed: Option<SimDuration>) -> Result<(), String> {
        if self.clock_leaf_ns != self.clock_root_ns {
            return Err(format!(
                "conservation violated on clock timeline: leaves {} ns != roots {} ns \
                 (a charge site is missing or double-counted)",
                self.clock_leaf_ns, self.clock_root_ns
            ));
        }
        if self.detached_leaf_ns != self.detached_root_ns {
            return Err(format!(
                "conservation violated on detached timeline: leaves {} ns != roots {} ns",
                self.detached_leaf_ns, self.detached_root_ns
            ));
        }
        if let Some(elapsed) = clock_elapsed {
            if self.clock_root_ns != elapsed.as_nanos() {
                return Err(format!(
                    "clock timeline not tiled: attributed {} ns != elapsed {} ns",
                    self.clock_root_ns,
                    elapsed.as_nanos()
                ));
            }
        }
        Ok(())
    }
}

/// Baseline snapshot for scoped audits (see [`TraceHandle::scope`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditScope {
    base: ConservationSums,
}

// ----------------------------------------------------------------------
// Per-enclave ring buffers
// ----------------------------------------------------------------------

/// Bounded record store (spans and edges use the same one), guarded by
/// the collector's lock. It appends until it holds `cap` records, then
/// overwrites the oldest in place, slot `pushed % cap`; memory grows
/// with what is written, never with `cap` up front. The conservation
/// sums in [`Metrics`] are unaffected by ring capacity, and
/// [`Ring::lost`] reports exactly how many records were overwritten so
/// exporters can refuse to present a partial view as a complete one.
struct Ring<T> {
    records: Vec<T>,
    cap: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// A ring keeping the last `capacity` records, rounded up to a power
    /// of two (at least 2).
    fn new(capacity: usize) -> Ring<T> {
        Ring {
            records: Vec::new(),
            cap: capacity.next_power_of_two().max(2),
            pushed: 0,
        }
    }

    fn push(&mut self, record: T) {
        if self.records.len() < self.cap {
            self.records.push(record);
        } else {
            self.records[(self.pushed % self.cap as u64) as usize] = record;
        }
        self.pushed += 1;
    }

    /// Records pushed past capacity and overwritten.
    fn lost(&self) -> u64 {
        self.pushed.saturating_sub(self.cap as u64)
    }
}

/// The ring for `enclave`; enclaves beyond the last index share the
/// final (overflow) ring.
fn ring_for<T>(rings: &mut [Ring<T>], enclave: u32) -> &mut Ring<T> {
    let last = rings.len() - 1;
    &mut rings[(enclave as usize).min(last)]
}

// ----------------------------------------------------------------------
// Metrics registry
// ----------------------------------------------------------------------

struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    op_counts: [AtomicU64; SpanKind::COUNT],
    edge_counts: [AtomicU64; EdgeKind::COUNT],
    hists: [Histogram; Hist::COUNT],
    shard_counters: [[AtomicU64; ShardCounter::COUNT]; MAX_SHARDS],
    shard_lookup_ns: [Histogram; MAX_SHARDS],
    clock_root_ns: AtomicU64,
    clock_leaf_ns: AtomicU64,
    detached_root_ns: AtomicU64,
    detached_leaf_ns: AtomicU64,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            op_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            edge_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
            shard_counters: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            shard_lookup_ns: std::array::from_fn(|_| Histogram::new()),
            clock_root_ns: AtomicU64::new(0),
            clock_leaf_ns: AtomicU64::new(0),
            detached_root_ns: AtomicU64::new(0),
            detached_leaf_ns: AtomicU64::new(0),
        }
    }

    fn sums(&self) -> ConservationSums {
        ConservationSums {
            clock_root_ns: self.clock_root_ns.load(Ordering::Relaxed),
            clock_leaf_ns: self.clock_leaf_ns.load(Ordering::Relaxed),
            detached_root_ns: self.detached_root_ns.load(Ordering::Relaxed),
            detached_leaf_ns: self.detached_leaf_ns.load(Ordering::Relaxed),
        }
    }
}

// ----------------------------------------------------------------------
// Collector
// ----------------------------------------------------------------------

struct Frame {
    kind: SpanKind,
    start: SimTime,
    ctx: Ctx,
    timeline: Timeline,
    leaves: Vec<Span>,
}

/// What the collector's lock guards: each thread's open op frames and
/// the rings committed spans and edges land in.
struct Recorded {
    frames: HashMap<ThreadId, Vec<Frame>>,
    /// Per-enclave span rings, keyed by the span's enclave.
    spans: Vec<Ring<Span>>,
    /// Per-enclave causal-edge rings, keyed by the source enclave.
    edges: Vec<Ring<Edge>>,
}

/// Shared state behind an enabled [`TraceHandle`].
pub struct Collector {
    metrics: Metrics,
    recorded: Mutex<Recorded>,
}

impl Collector {
    fn new(slots_per_ring: usize, enclave_rings: usize) -> Collector {
        let rings = enclave_rings.max(1) + 1;
        Collector {
            metrics: Metrics::new(),
            recorded: Mutex::new(Recorded {
                frames: HashMap::new(),
                spans: (0..rings).map(|_| Ring::new(slots_per_ring)).collect(),
                edges: (0..rings).map(|_| Ring::new(slots_per_ring)).collect(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Recorded> {
        self.recorded
            .lock()
            .expect("a thread panicked while recording a trace")
    }

    fn leaf(&self, kind: SpanKind, start: SimTime, dur: SimDuration, ctx: Ctx) {
        let mut recorded = self.lock();
        let Recorded { frames, spans, .. } = &mut *recorded;
        let stack = frames.entry(std::thread::current().id()).or_default();
        if let Some(frame) = stack.last_mut() {
            frame.leaves.push(Span {
                start,
                dur,
                op: frame.kind,
                kind,
                root: false,
                self_rooted: false,
                timeline: frame.timeline,
                parent_kind: frame.kind,
                parent_start: frame.start,
                ctx,
            });
        } else {
            // Self-rooted: a charge observed outside any op frame
            // (direct `*_at` callers). Charge it to the detached
            // timeline as both root and leaf so conservation holds.
            let ns = dur.as_nanos();
            self.metrics
                .detached_root_ns
                .fetch_add(ns, Ordering::Relaxed);
            self.metrics
                .detached_leaf_ns
                .fetch_add(ns, Ordering::Relaxed);
            ring_for(spans, ctx.enclave).push(Span {
                start,
                dur,
                op: kind,
                kind,
                root: false,
                self_rooted: true,
                timeline: Timeline::Detached,
                parent_kind: kind,
                parent_start: start,
                ctx,
            });
        }
    }

    fn edge(&self, edge: Edge) {
        self.metrics.edge_counts[edge.kind as usize].fetch_add(1, Ordering::Relaxed);
        ring_for(&mut self.lock().edges, edge.src_ctx.enclave).push(edge);
    }

    fn begin_op(&self, kind: SpanKind, start: SimTime, ctx: Ctx, timeline: Timeline) {
        self.lock()
            .frames
            .entry(std::thread::current().id())
            .or_default()
            .push(Frame {
                kind,
                start,
                ctx,
                timeline,
                leaves: Vec::new(),
            });
    }

    fn commit_op(&self, end: SimTime) {
        let mut recorded = self.lock();
        let Recorded { frames, spans, .. } = &mut *recorded;
        let Some(frame) = frames
            .get_mut(&std::thread::current().id())
            .and_then(Vec::pop)
        else {
            debug_assert!(false, "commit_op with no open frame");
            return;
        };
        let dur = end.duration_since(frame.start);
        let (root_sum, leaf_sum) = match frame.timeline {
            Timeline::Clock => (&self.metrics.clock_root_ns, &self.metrics.clock_leaf_ns),
            Timeline::Detached => (
                &self.metrics.detached_root_ns,
                &self.metrics.detached_leaf_ns,
            ),
        };
        root_sum.fetch_add(dur.as_nanos(), Ordering::Relaxed);
        for leaf in frame.leaves {
            leaf_sum.fetch_add(leaf.dur.as_nanos(), Ordering::Relaxed);
            ring_for(spans, leaf.ctx.enclave).push(leaf);
        }
        ring_for(spans, frame.ctx.enclave).push(Span {
            start: frame.start,
            dur,
            op: frame.kind,
            kind: frame.kind,
            root: true,
            self_rooted: false,
            timeline: frame.timeline,
            parent_kind: frame.kind,
            parent_start: frame.start,
            ctx: frame.ctx,
        });
        self.metrics.op_counts[frame.kind as usize].fetch_add(1, Ordering::Relaxed);
        match frame.kind {
            SpanKind::Attach => self.metrics.hists[Hist::AttachNs as usize].observe(dur.as_nanos()),
            SpanKind::Detach => self.metrics.hists[Hist::DetachNs as usize].observe(dur.as_nanos()),
            _ => {}
        }
    }

    fn abort_op(&self) {
        if let Some(stack) = self.lock().frames.get_mut(&std::thread::current().id()) {
            stack.pop();
        }
    }

    fn spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .lock()
            .spans
            .iter()
            .flat_map(|ring| ring.records.iter().copied())
            .collect();
        // Total order over every span field: ring push order is
        // nondeterministic when PDES lane workers emit concurrently, so
        // the export order must be reconstructed from span *content*
        // alone for `--lanes`/`--jobs` byte-identical exports.
        out.sort_by_key(|s| {
            (
                s.start.as_nanos(),
                !s.root,
                s.kind as u8,
                s.op as u8,
                (s.timeline as u8, s.self_rooted),
                s.parent_kind as u8,
                s.parent_start.as_nanos(),
                s.ctx.enclave,
                s.ctx.pid,
                s.ctx.segid,
                s.dur.as_nanos(),
            )
        });
        out
    }

    fn edges(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self
            .lock()
            .edges
            .iter()
            .flat_map(|ring| ring.records.iter().copied())
            .collect();
        // Content order, for the same reason as `spans()`.
        out.sort_by_key(|e| {
            (
                e.src.as_nanos(),
                e.dst.as_nanos(),
                e.kind as u8,
                e.src_ctx.enclave,
                e.src_ctx.pid,
                e.src_ctx.segid,
                e.dst_ctx.enclave,
                e.dst_ctx.pid,
                e.dst_ctx.segid,
                (e.msg, e.bytes),
            )
        });
        out
    }

    fn lost_spans(&self) -> u64 {
        self.lock().spans.iter().map(Ring::lost).sum()
    }

    fn lost_edges(&self) -> u64 {
        self.lock().edges.iter().map(Ring::lost).sum()
    }
}

// ----------------------------------------------------------------------
// TraceHandle
// ----------------------------------------------------------------------

/// Cheap, cloneable entry point. A disabled handle (the default) makes
/// every hook an inlined no-op branch — no allocation, no locking.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Collector>>,
}

impl TraceHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> TraceHandle {
        TraceHandle { inner: None }
    }

    /// An enabled handle with default capacity (32 Ki spans per
    /// enclave ring, 8 enclave rings + 1 overflow ring).
    pub fn enabled() -> TraceHandle {
        TraceHandle::with_capacity(1 << 15, 8)
    }

    /// An enabled handle with explicit ring sizing. Ring capacity only
    /// bounds how many spans the exporters can see; metrics and the
    /// conservation auditor are exact regardless. Rings allocate as
    /// records are written, so an unused capacity costs nothing.
    pub fn with_capacity(slots_per_ring: usize, enclave_rings: usize) -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::new(Collector::new(slots_per_ring, enclave_rings))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a leaf: one charged virtual-time component. Zero
    /// durations record nothing.
    #[inline]
    pub fn leaf(&self, kind: SpanKind, start: SimTime, dur: SimDuration, ctx: Ctx) {
        if let Some(c) = &self.inner {
            if !dur.is_zero() {
                c.leaf(kind, start, dur, ctx);
            }
        }
    }

    /// Charge one virtual-time component to a timeline: record it as a
    /// [`Self::leaf`] and return `start + dur`, the advanced time. Every
    /// cursor advance that goes through here is attributed by
    /// construction; on a disabled handle only the addition remains.
    #[inline]
    #[must_use = "the advanced time is the charge"]
    pub fn charge(&self, kind: SpanKind, start: SimTime, dur: SimDuration, ctx: Ctx) -> SimTime {
        self.leaf(kind, start, dur, ctx);
        start + dur
    }

    /// Record a causal edge: virtual time `src` (at `src_ctx`)
    /// happens-before `dst` (at `dst_ctx`). Like every hook, an inlined
    /// no-op on a disabled handle — no allocation, no locking.
    #[inline]
    pub fn edge(&self, kind: EdgeKind, src: SimTime, dst: SimTime, src_ctx: Ctx, dst_ctx: Ctx) {
        if let Some(c) = &self.inner {
            debug_assert!(dst >= src, "causal edge must not point backwards");
            c.edge(Edge {
                kind,
                src,
                dst,
                src_ctx,
                dst_ctx,
                msg: 0,
                bytes: 0,
            });
        }
    }

    /// Record one cross-enclave message hop as a [`EdgeKind::SendRecv`]
    /// edge naming the message: `msg` is the protocol layer's code for
    /// it and `bytes` its wire size. The tracer is the only record of
    /// protocol traffic, so every hop goes through here.
    #[inline]
    pub fn send_recv(
        &self,
        src: SimTime,
        dst: SimTime,
        src_ctx: Ctx,
        dst_ctx: Ctx,
        msg: u8,
        bytes: u64,
    ) {
        if let Some(c) = &self.inner {
            debug_assert!(dst >= src, "causal edge must not point backwards");
            c.edge(Edge {
                kind: EdgeKind::SendRecv,
                src,
                dst,
                src_ctx,
                dst_ctx,
                msg,
                bytes,
            });
        }
    }

    /// Open an op frame on the current thread.
    #[inline]
    pub fn begin_op(&self, kind: SpanKind, start: SimTime, ctx: Ctx, timeline: Timeline) {
        if let Some(c) = &self.inner {
            c.begin_op(kind, start, ctx, timeline);
        }
    }

    /// Close the innermost frame successfully, charging `end - start`
    /// to its timeline and publishing the root + buffered leaves.
    #[inline]
    pub fn commit_op(&self, end: SimTime) {
        if let Some(c) = &self.inner {
            c.commit_op(end);
        }
    }

    /// Discard the innermost frame (failed op: no virtual time was
    /// charged, so nothing is attributed).
    #[inline]
    pub fn abort_op(&self) {
        if let Some(c) = &self.inner {
            c.abort_op();
        }
    }

    /// Bump a counter.
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(c) = &self.inner {
            c.metrics.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(c) = &self.inner {
            c.metrics.hists[hist as usize].observe(value);
        }
    }

    /// Bump a per-shard name-service counter (shards past
    /// [`MAX_SHARDS`] fold into the last bucket).
    #[inline]
    pub fn count_shard(&self, shard: usize, counter: ShardCounter, n: u64) {
        if let Some(c) = &self.inner {
            c.metrics.shard_counters[shard.min(MAX_SHARDS - 1)][counter as usize]
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one end-to-end lookup latency against a shard's
    /// histogram.
    #[inline]
    pub fn observe_shard_lookup(&self, shard: usize, ns: u64) {
        if let Some(c) = &self.inner {
            c.metrics.shard_lookup_ns[shard.min(MAX_SHARDS - 1)].observe(ns);
        }
    }

    /// Current value of a per-shard counter (0 when disabled).
    pub fn shard_counter(&self, shard: usize, counter: ShardCounter) -> u64 {
        self.inner
            .as_ref()
            .map(|c| {
                c.metrics.shard_counters[shard.min(MAX_SHARDS - 1)][counter as usize]
                    .load(Ordering::Relaxed)
            })
            .unwrap_or(0)
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner
            .as_ref()
            .map(|c| c.metrics.counters[counter as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Committed op count for a span kind (0 when disabled).
    pub fn op_count(&self, kind: SpanKind) -> u64 {
        self.inner
            .as_ref()
            .map(|c| c.metrics.op_counts[kind as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of one histogram (`None` when disabled).
    pub fn hist(&self, hist: Hist) -> Option<HistSnapshot> {
        self.inner
            .as_ref()
            .map(|c| c.metrics.hists[hist as usize].snapshot())
    }

    /// Current conservation sums (zero when disabled).
    pub fn sums(&self) -> ConservationSums {
        self.inner
            .as_ref()
            .map(|c| c.metrics.sums())
            .unwrap_or_default()
    }

    /// Snapshot the sums so a later [`TraceHandle::audit_scope`] can
    /// check only the work in between.
    pub fn scope(&self) -> AuditScope {
        AuditScope { base: self.sums() }
    }

    /// Assert leaf/root conservation on both timelines over the whole
    /// handle lifetime. Errors describe the discrepancy.
    pub fn audit(&self) -> Result<ConservationSums, String> {
        self.audit_scope(&AuditScope::default(), None)
    }

    /// [`TraceHandle::audit`] plus the clock-tiling check: the
    /// clock-timeline roots must equal `elapsed` exactly.
    pub fn audit_clock(&self, elapsed: SimDuration) -> Result<ConservationSums, String> {
        self.audit_scope(&AuditScope::default(), Some(elapsed))
    }

    /// Audit only the work recorded since `scope` was taken,
    /// optionally checking that clock-timeline roots tile
    /// `clock_elapsed` exactly.
    pub fn audit_scope(
        &self,
        scope: &AuditScope,
        clock_elapsed: Option<SimDuration>,
    ) -> Result<ConservationSums, String> {
        if self.inner.is_none() {
            return Err("tracing disabled: nothing to audit".to_string());
        }
        let delta = self.sums().delta_since(&scope.base);
        delta.check(clock_elapsed)?;
        Ok(delta)
    }

    /// Snapshot all recorded spans, merged across rings and sorted by
    /// start time. Empty when disabled.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map(|c| c.spans()).unwrap_or_default()
    }

    /// Snapshot all recorded causal edges, merged across rings and
    /// content-sorted. Empty when disabled.
    pub fn edges(&self) -> Vec<Edge> {
        self.inner.as_ref().map(|c| c.edges()).unwrap_or_default()
    }

    /// Spans overwritten by ring wrap-around and no longer visible to
    /// the exporters (0 when disabled). The obs-report conservation
    /// gate requires this to be zero: an overwritten span would make
    /// the span-derived sums silently disagree with the registry.
    pub fn lost_spans(&self) -> u64 {
        self.inner.as_ref().map(|c| c.lost_spans()).unwrap_or(0)
    }

    /// Causal edges overwritten by ring wrap-around (0 when disabled).
    pub fn lost_edges(&self) -> u64 {
        self.inner.as_ref().map(|c| c.lost_edges()).unwrap_or(0)
    }

    /// Emitted-edge count for one kind (0 when disabled). Exact
    /// regardless of ring capacity.
    pub fn edge_count(&self, kind: EdgeKind) -> u64 {
        self.inner
            .as_ref()
            .map(|c| c.metrics.edge_counts[kind as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Point-in-time copy of the whole metrics registry — conservation
    /// sums, op counts, counters, and histogram snapshots. `Eq`, so
    /// parallel-vs-serial equivalence tests can assert two runs
    /// recorded *exactly* the same metrics. `None` when disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let c = self.inner.as_ref()?;
        Some(MetricsSnapshot {
            sums: c.metrics.sums(),
            op_counts: std::array::from_fn(|i| c.metrics.op_counts[i].load(Ordering::Relaxed)),
            counters: std::array::from_fn(|i| c.metrics.counters[i].load(Ordering::Relaxed)),
            edge_counts: std::array::from_fn(|i| c.metrics.edge_counts[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| c.metrics.hists[i].snapshot()),
            shard_counters: std::array::from_fn(|s| {
                std::array::from_fn(|i| c.metrics.shard_counters[s][i].load(Ordering::Relaxed))
            }),
            shard_lookup_ns: (0..MAX_SHARDS)
                .map(|s| c.metrics.shard_lookup_ns[s].snapshot())
                .collect(),
        })
    }

    /// Human-readable metrics dump: non-zero counters, op counts, and
    /// histogram summaries.
    pub fn metrics_summary(&self) -> String {
        match self.metrics_snapshot() {
            Some(snap) => snap.render(),
            None => "tracing disabled".to_string(),
        }
    }
}

// ----------------------------------------------------------------------
// Metrics snapshots and multi-run merges
// ----------------------------------------------------------------------

/// An `Eq`-comparable copy of a handle's entire metrics registry.
///
/// Used two ways: the equivalence proptests compare the snapshot of a
/// serial run against its parallel twin, and the bench driver folds one
/// snapshot per run into an aggregate ([`MetricsSnapshot::absorb`]) for
/// the end-of-run summary — addition is commutative, so the aggregate
/// is independent of worker completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Conservation sums at snapshot time.
    pub sums: ConservationSums,
    /// Committed op counts, indexed by `SpanKind` discriminant.
    pub op_counts: [u64; SpanKind::COUNT],
    /// Counter values, indexed by `Counter` discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Emitted causal-edge counts, indexed by `EdgeKind` discriminant.
    pub edge_counts: [u64; EdgeKind::COUNT],
    /// Histogram snapshots, indexed by `Hist` discriminant.
    pub hists: [HistSnapshot; Hist::COUNT],
    /// Per-shard name-service counters, `[shard][ShardCounter]`.
    pub shard_counters: [[u64; ShardCounter::COUNT]; MAX_SHARDS],
    /// Per-shard lookup-latency histograms (always `MAX_SHARDS` long).
    pub shard_lookup_ns: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// The all-zero snapshot (identity for [`MetricsSnapshot::absorb`]).
    pub fn zero() -> MetricsSnapshot {
        MetricsSnapshot {
            sums: ConservationSums::default(),
            op_counts: [0; SpanKind::COUNT],
            counters: [0; Counter::COUNT],
            edge_counts: [0; EdgeKind::COUNT],
            hists: std::array::from_fn(|_| HistSnapshot {
                count: 0,
                sum: 0,
                buckets: [0; HIST_BUCKETS],
            }),
            shard_counters: [[0; ShardCounter::COUNT]; MAX_SHARDS],
            shard_lookup_ns: (0..MAX_SHARDS)
                .map(|_| HistSnapshot {
                    count: 0,
                    sum: 0,
                    buckets: [0; HIST_BUCKETS],
                })
                .collect(),
        }
    }

    /// Element-wise add `other` into `self`. Commutative and
    /// associative, so folding per-run snapshots in any order yields
    /// the same aggregate.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.sums.clock_root_ns += other.sums.clock_root_ns;
        self.sums.clock_leaf_ns += other.sums.clock_leaf_ns;
        self.sums.detached_root_ns += other.sums.detached_root_ns;
        self.sums.detached_leaf_ns += other.sums.detached_leaf_ns;
        for (a, b) in self.op_counts.iter_mut().zip(&other.op_counts) {
            *a += b;
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.edge_counts.iter_mut().zip(&other.edge_counts) {
            *a += b;
        }
        for (h, o) in self.hists.iter_mut().zip(&other.hists) {
            h.count += o.count;
            h.sum += o.sum;
            for (a, b) in h.buckets.iter_mut().zip(&o.buckets) {
                *a += b;
            }
        }
        for (row, other_row) in self.shard_counters.iter_mut().zip(&other.shard_counters) {
            for (a, b) in row.iter_mut().zip(other_row) {
                *a += b;
            }
        }
        for (h, o) in self.shard_lookup_ns.iter_mut().zip(&other.shard_lookup_ns) {
            h.count += o.count;
            h.sum += o.sum;
            for (a, b) in h.buckets.iter_mut().zip(&o.buckets) {
                *a += b;
            }
        }
    }

    /// Render in the same format as [`TraceHandle::metrics_summary`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "attributed virtual time: clock {} ns (leaves {}), detached {} ns (leaves {})\n",
            self.sums.clock_root_ns,
            self.sums.clock_leaf_ns,
            self.sums.detached_root_ns,
            self.sums.detached_leaf_ns
        ));
        for kind in SpanKind::ALL {
            let n = self.op_counts[kind as usize];
            if n > 0 {
                out.push_str(&format!("op {}: {}\n", kind.as_str(), n));
            }
        }
        for counter in Counter::ALL {
            let v = self.counters[counter as usize];
            if v > 0 {
                out.push_str(&format!("counter {}: {}\n", counter.as_str(), v));
            }
        }
        for kind in EdgeKind::ALL {
            let v = self.edge_counts[kind as usize];
            if v > 0 {
                out.push_str(&format!("edge {}: {}\n", kind.as_str(), v));
            }
        }
        for hist in Hist::ALL {
            let s = &self.hists[hist as usize];
            if s.count > 0 {
                out.push_str(&format!(
                    "hist {}: n={} mean={:.1} p50<={} p99<={}\n",
                    hist.as_str(),
                    s.count,
                    s.mean(),
                    s.percentile_bound(50),
                    s.percentile_bound(99)
                ));
            }
        }
        for (shard, row) in self.shard_counters.iter().enumerate() {
            for counter in ShardCounter::ALL {
                let v = row[counter as usize];
                if v > 0 {
                    out.push_str(&format!("shard {shard} {}: {}\n", counter.as_str(), v));
                }
            }
        }
        for (shard, s) in self.shard_lookup_ns.iter().enumerate() {
            if s.count > 0 {
                out.push_str(&format!(
                    "shard {shard} hist lookup_ns: n={} mean={:.1} p50<={} p99<={}\n",
                    s.count,
                    s.mean(),
                    s.percentile_bound(50),
                    s.percentile_bound(99)
                ));
            }
        }
        out
    }

    /// Prometheus text-format exposition of the whole registry: every
    /// global counter, op count, edge count and conservation sum (zeros
    /// included, so a scrape always sees the full schema), the log₂
    /// histograms as cumulative `_bucket`/`_sum`/`_count` series, and
    /// the per-shard series for shards that recorded anything.
    /// Iteration order is fixed, so the exposition is deterministic.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE xemem_attributed_ns counter\n");
        for (timeline, level, v) in [
            ("clock", "root", self.sums.clock_root_ns),
            ("clock", "leaf", self.sums.clock_leaf_ns),
            ("detached", "root", self.sums.detached_root_ns),
            ("detached", "leaf", self.sums.detached_leaf_ns),
        ] {
            out.push_str(&format!(
                "xemem_attributed_ns{{timeline=\"{timeline}\",level=\"{level}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE xemem_ops_total counter\n");
        for kind in SpanKind::ALL {
            out.push_str(&format!(
                "xemem_ops_total{{op=\"{}\"}} {}\n",
                kind.as_str(),
                self.op_counts[kind as usize]
            ));
        }
        out.push_str("# TYPE xemem_edges_total counter\n");
        for kind in EdgeKind::ALL {
            out.push_str(&format!(
                "xemem_edges_total{{kind=\"{}\"}} {}\n",
                kind.as_str(),
                self.edge_counts[kind as usize]
            ));
        }
        for counter in Counter::ALL {
            let name = counter.as_str();
            out.push_str(&format!(
                "# TYPE xemem_{name} counter\nxemem_{name} {}\n",
                self.counters[counter as usize]
            ));
        }
        for hist in Hist::ALL {
            push_prometheus_hist(
                &mut out,
                &format!("xemem_{}", hist.as_str()),
                "",
                &self.hists[hist as usize],
            );
        }
        for counter in ShardCounter::ALL {
            let name = counter.as_str();
            let mut typed = false;
            for (shard, row) in self.shard_counters.iter().enumerate() {
                let v = row[counter as usize];
                if v > 0 {
                    if !typed {
                        out.push_str(&format!("# TYPE xemem_shard_{name} counter\n"));
                        typed = true;
                    }
                    out.push_str(&format!("xemem_shard_{name}{{shard=\"{shard}\"}} {v}\n"));
                }
            }
        }
        for (shard, s) in self.shard_lookup_ns.iter().enumerate() {
            if s.count > 0 {
                push_prometheus_hist(
                    &mut out,
                    "xemem_shard_lookup_ns",
                    &format!("shard=\"{shard}\""),
                    s,
                );
            }
        }
        out
    }
}

/// Append one histogram in Prometheus exposition format. Bucket `k` of
/// the log₂ scheme holds values in `[2^(k-1), 2^k - 1]` (bucket 0 holds
/// zeros), so the cumulative `le` bound of bucket `k` is `2^k - 1`.
fn push_prometheus_hist(out: &mut String, name: &str, labels: &str, s: &HistSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (k, b) in s.buckets.iter().enumerate() {
        if *b == 0 {
            continue;
        }
        cumulative += b;
        let le = if k == 0 { 0 } else { ((1u128 << k) - 1) as u64 };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
        s.count
    ));
    let plain = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{plain} {}\n", s.sum));
    out.push_str(&format!("{name}_count{plain} {}\n", s.count));
}

/// Chrome-trace `pid` lanes are namespaced per run in merged exports:
/// run `r`, enclave `e` renders as `pid = r * RUN_PID_STRIDE + e`.
pub const RUN_PID_STRIDE: u64 = 1000;

fn push_chrome_event(out: &mut String, s: &Span, run: u64) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
         \"pid\":{},\"tid\":{},\"args\":{{\"segid\":{},\"root\":{},\"run\":{run}}}}}",
        s.kind.as_str(),
        s.op.as_str(),
        s.start.as_nanos() as f64 / 1e3,
        s.dur.as_nanos() as f64 / 1e3,
        run * RUN_PID_STRIDE + s.ctx.enclave as u64,
        s.ctx.pid,
        s.ctx.segid,
        s.root,
    ));
}

/// Export per-run spans as one chrome://tracing "Trace Event Format"
/// document (a JSON array of complete `"X"` events; open with
/// chrome://tracing or https://ui.perfetto.dev), keyed by run id — *not*
/// by worker completion order. Runs are sorted by id, each run's spans
/// keep their own (deterministic) ring order, and `pid` lanes are
/// namespaced `run * RUN_PID_STRIDE + enclave` so runs render as
/// separate process groups; `tid` is the process id and `args.run` the
/// run id. Two merges over the same runs are byte-identical however
/// the runs were scheduled. A single run is `&[(0, handle)]`.
pub fn merge_chrome_trace_json(runs: &[(u64, TraceHandle)]) -> String {
    let mut sorted: Vec<&(u64, TraceHandle)> = runs.iter().collect();
    sorted.sort_by_key(|(id, _)| *id);
    let mut out = String::from("[\n");
    let mut first = true;
    for (id, handle) in sorted {
        for s in handle.spans() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            push_chrome_event(&mut out, &s, *id);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Export per-run leaf spans as folded stacks (`op;leaf <ns>` per line)
/// for flamegraph tools. Root aggregates are excluded — their time is
/// exactly the sum of their leaves. Stack counts are summed across runs
/// (addition commutes, so the result is schedule-independent), lines
/// are sorted, and frame names are escaped with [`escape_frame`] so the
/// stacks stay parseable whatever the names contain.
pub fn merge_folded_stacks(runs: &[(u64, TraceHandle)]) -> String {
    let mut agg: HashMap<(SpanKind, SpanKind), u64> = HashMap::new();
    for (_, handle) in runs {
        for s in handle.spans() {
            if s.root {
                continue;
            }
            *agg.entry((s.op, s.kind)).or_insert(0) += s.dur.as_nanos();
        }
    }
    let mut lines: Vec<String> = agg
        .into_iter()
        .map(|((op, kind), ns)| {
            if op == kind {
                format!("{} {ns}", escape_frame(kind.as_str()))
            } else {
                format!(
                    "{};{} {ns}",
                    escape_frame(op.as_str()),
                    escape_frame(kind.as_str())
                )
            }
        })
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Escape one frame name for folded-stack output. Flamegraph tooling
/// splits a line into frames on `;` and strips the sample count after
/// the last space, so a name containing either — or control characters,
/// which break line-oriented merging — would corrupt every stack it
/// appears in. Offending bytes (and `%` itself, so escaping stays
/// reversible) are percent-encoded; clean names pass through borrowed.
pub fn escape_frame(name: &str) -> std::borrow::Cow<'_, str> {
    fn needs_escape(c: char) -> bool {
        c == ';' || c == '%' || c.is_whitespace() || c.is_control()
    }
    if !name.chars().any(needs_escape) {
        return std::borrow::Cow::Borrowed(name);
    }
    let mut out = String::with_capacity(name.len() + 8);
    let mut utf8 = [0u8; 4];
    for c in name.chars() {
        if needs_escape(c) {
            for b in c.encode_utf8(&mut utf8).bytes() {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
        } else {
            out.push(c);
        }
    }
    std::borrow::Cow::Owned(out)
}

// ----------------------------------------------------------------------
// Obs report (the xemem-obs interchange format)
// ----------------------------------------------------------------------

/// First line of every obs report; bump the version when the format
/// changes shape.
pub const OBS_REPORT_HEADER: &str = "xemem-obs v1\n";

/// Merge per-run spans, causal edges, conservation sums and metrics
/// registries into one obs report, keyed by run id. The format is
/// line-oriented and integer-exact — every virtual nanosecond appears
/// verbatim, so the `xemem-obs` analyzers can re-derive and *gate* the
/// conservation invariants from the report alone:
///
/// ```text
/// xemem-obs v1
/// run <id>
/// sums <clock_root> <clock_leaf> <detached_root> <detached_leaf>
/// lost <spans> <edges>
/// span <c|d> <r|l|s> <op> <kind> <start> <dur> <parent_kind> <parent_start> <enclave> <pid> <segid>
/// edge <kind> <src> <dst> <src_enclave> <src_pid> <src_segid> <dst_enclave> <dst_pid> <dst_segid>
/// op_count <name> <n>
/// edge_count <name> <n>
/// counter <name> <v>
/// hist <name> <count> <sum> <b0> … <b64>
/// shard_counter <shard> <name> <v>
/// shard_hist <shard> <count> <sum> <b0> … <b64>
/// end <id>
/// ```
///
/// Span level is `r` (root), `l` (leaf) or `s` (self-rooted leaf);
/// timeline is `c` (clock) or `d` (detached). Zero-valued registry
/// entries are omitted. Runs sort by id and spans/edges by content, so
/// two merges over the same runs are byte-identical however the runs
/// were scheduled — CI's obs-smoke job `cmp`s exactly that.
pub fn merge_obs_report(runs: &[(u64, TraceHandle)]) -> String {
    let mut sorted: Vec<&(u64, TraceHandle)> = runs.iter().collect();
    sorted.sort_by_key(|(id, _)| *id);
    let mut out = String::from(OBS_REPORT_HEADER);
    for (id, handle) in sorted {
        write_obs_run(&mut out, *id, handle);
    }
    out
}

fn write_obs_run(out: &mut String, id: u64, handle: &TraceHandle) {
    let Some(snap) = handle.metrics_snapshot() else {
        return;
    };
    out.push_str(&format!("run {id}\n"));
    out.push_str(&format!(
        "sums {} {} {} {}\n",
        snap.sums.clock_root_ns,
        snap.sums.clock_leaf_ns,
        snap.sums.detached_root_ns,
        snap.sums.detached_leaf_ns
    ));
    out.push_str(&format!(
        "lost {} {}\n",
        handle.lost_spans(),
        handle.lost_edges()
    ));
    for s in handle.spans() {
        let timeline = match s.timeline {
            Timeline::Clock => 'c',
            Timeline::Detached => 'd',
        };
        let level = if s.root {
            'r'
        } else if s.self_rooted {
            's'
        } else {
            'l'
        };
        out.push_str(&format!(
            "span {timeline} {level} {} {} {} {} {} {} {} {} {}\n",
            s.op.as_str(),
            s.kind.as_str(),
            s.start.as_nanos(),
            s.dur.as_nanos(),
            s.parent_kind.as_str(),
            s.parent_start.as_nanos(),
            s.ctx.enclave,
            s.ctx.pid,
            s.ctx.segid
        ));
    }
    for e in handle.edges() {
        out.push_str(&format!(
            "edge {} {} {} {} {} {} {} {} {}\n",
            e.kind.as_str(),
            e.src.as_nanos(),
            e.dst.as_nanos(),
            e.src_ctx.enclave,
            e.src_ctx.pid,
            e.src_ctx.segid,
            e.dst_ctx.enclave,
            e.dst_ctx.pid,
            e.dst_ctx.segid
        ));
    }
    for kind in SpanKind::ALL {
        let n = snap.op_counts[kind as usize];
        if n > 0 {
            out.push_str(&format!("op_count {} {n}\n", kind.as_str()));
        }
    }
    for kind in EdgeKind::ALL {
        let n = snap.edge_counts[kind as usize];
        if n > 0 {
            out.push_str(&format!("edge_count {} {n}\n", kind.as_str()));
        }
    }
    for counter in Counter::ALL {
        let v = snap.counters[counter as usize];
        if v > 0 {
            out.push_str(&format!("counter {} {v}\n", counter.as_str()));
        }
    }
    for hist in Hist::ALL {
        let s = &snap.hists[hist as usize];
        if s.count > 0 {
            push_obs_hist(out, &format!("hist {}", hist.as_str()), s);
        }
    }
    for (shard, row) in snap.shard_counters.iter().enumerate() {
        for counter in ShardCounter::ALL {
            let v = row[counter as usize];
            if v > 0 {
                out.push_str(&format!("shard_counter {shard} {} {v}\n", counter.as_str()));
            }
        }
    }
    for (shard, s) in snap.shard_lookup_ns.iter().enumerate() {
        if s.count > 0 {
            push_obs_hist(out, &format!("shard_hist {shard}"), s);
        }
    }
    out.push_str(&format!("end {id}\n"));
}

fn push_obs_hist(out: &mut String, prefix: &str, s: &HistSnapshot) {
    out.push_str(&format!("{prefix} {} {}", s.count, s.sum));
    for b in s.buckets.iter() {
        out.push_str(&format!(" {b}"));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        h.begin_op(SpanKind::Attach, t(0), Ctx::NONE, Timeline::Clock);
        h.leaf(SpanKind::IpiXfer, t(0), d(10), Ctx::NONE);
        h.commit_op(t(10));
        h.count(Counter::Reaps, 3);
        h.observe(Hist::AttachNs, 10);
        assert!(!h.is_enabled());
        assert!(h.spans().is_empty());
        assert_eq!(h.sums(), ConservationSums::default());
        assert!(h.audit().is_err());
    }

    #[test]
    fn charge_records_one_leaf_and_advances() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(100), Ctx::NONE, Timeline::Clock);
        assert_eq!(
            h.charge(SpanKind::IpiWait, t(100), d(30), Ctx::NONE),
            t(130)
        );
        assert_eq!(h.charge(SpanKind::IpiXfer, t(130), d(0), Ctx::NONE), t(130));
        h.commit_op(t(130));
        let spans = h.spans();
        assert_eq!(spans.iter().filter(|s| !s.root).count(), 1);
        assert_eq!(h.audit_clock(d(30)).expect("conserved").clock_leaf_ns, 30);
        let off = TraceHandle::disabled();
        assert_eq!(off.charge(SpanKind::IpiWait, t(7), d(5), Ctx::NONE), t(12));
    }

    #[test]
    fn top_bucket_percentile_is_unbounded() {
        let h = TraceHandle::enabled();
        h.observe(Hist::AttachNs, 1 << 63);
        let hist = h.hist(Hist::AttachNs).unwrap();
        assert_eq!(hist.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(hist.percentile_bound(50), u64::MAX);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(63), (1 << 63) - 1);
    }

    #[test]
    fn commit_charges_roots_and_leaves() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(100), Ctx::proc(1, 7), Timeline::Clock);
        h.leaf(SpanKind::IpiWait, t(100), d(30), Ctx::enclave(1));
        h.leaf(SpanKind::IpiXfer, t(130), d(70), Ctx::enclave(1));
        h.commit_op(t(200));
        let sums = h.audit_clock(d(100)).expect("conserved");
        assert_eq!(sums.clock_root_ns, 100);
        assert_eq!(sums.clock_leaf_ns, 100);
        assert_eq!(h.op_count(SpanKind::Attach), 1);
        let spans = h.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.root).count(), 1);
        let hist = h.hist(Hist::AttachNs).unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 100);
    }

    #[test]
    fn abort_discards_leaves() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Make, t(0), Ctx::NONE, Timeline::Clock);
        h.leaf(SpanKind::NsProcess, t(0), d(50), Ctx::NONE);
        h.abort_op();
        assert_eq!(h.sums(), ConservationSums::default());
        assert!(h.spans().is_empty());
        h.audit_clock(SimDuration::ZERO).expect("empty conserved");
    }

    #[test]
    fn missed_leaf_trips_audit() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Get, t(0), Ctx::NONE, Timeline::Clock);
        h.leaf(SpanKind::NsProcess, t(0), d(40), Ctx::NONE);
        h.commit_op(t(100)); // 60 ns unattributed
        assert!(h.audit().is_err());
    }

    #[test]
    fn self_rooted_leaves_stay_conserved() {
        let h = TraceHandle::enabled();
        h.leaf(SpanKind::MapContention, t(5), d(25), Ctx::enclave(2));
        let sums = h.audit().expect("conserved");
        assert_eq!(sums.detached_root_ns, 25);
        assert_eq!(sums.detached_leaf_ns, 25);
        assert_eq!(sums.clock_root_ns, 0);
    }

    #[test]
    fn nested_detached_frame_commits_independently() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(0), Ctx::NONE, Timeline::Clock);
        h.leaf(SpanKind::ServeWalk, t(0), d(10), Ctx::NONE);
        // An injected fault serviced mid-op.
        h.begin_op(
            SpanKind::InjectedKill,
            t(4),
            Ctx::proc(1, 3),
            Timeline::Detached,
        );
        h.leaf(SpanKind::Quarantine, t(4), d(6), Ctx::proc(1, 3));
        h.commit_op(t(10));
        h.leaf(SpanKind::MapInstall, t(10), d(90), Ctx::NONE);
        h.commit_op(t(100));
        let sums = h.audit_clock(d(100)).expect("conserved");
        assert_eq!(sums.clock_root_ns, 100);
        assert_eq!(sums.detached_root_ns, 6);
    }

    #[test]
    fn ring_overwrite_keeps_sums_exact() {
        let h = TraceHandle::with_capacity(4, 1);
        for i in 0..64 {
            h.begin_op(SpanKind::Get, t(i * 10), Ctx::NONE, Timeline::Clock);
            h.leaf(SpanKind::NsProcess, t(i * 10), d(10), Ctx::NONE);
            h.commit_op(t(i * 10 + 10));
        }
        let sums = h.audit_clock(d(640)).expect("conserved despite overwrite");
        assert_eq!(sums.clock_root_ns, 640);
        // The rings only hold the most recent spans.
        assert!(h.spans().len() < 128);
    }

    #[test]
    fn exporters_produce_parseable_output() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(0), Ctx::seg(1, 2, 0x9), Timeline::Clock);
        h.leaf(SpanKind::IpiXfer, t(0), d(40), Ctx::enclave(0));
        h.leaf(SpanKind::MapInstall, t(40), d(60), Ctx::seg(1, 2, 0x9));
        h.commit_op(t(100));
        let runs = [(0, h)];
        let json = merge_chrome_trace_json(&runs);
        assert!(json.starts_with('['));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"map_install\""));
        assert_eq!(json.matches("{\"name\"").count(), 3);
        assert_eq!(json.matches("\"run\":0}").count(), 3);
        let folded = merge_folded_stacks(&runs);
        assert!(folded.contains("attach;ipi_xfer 40"));
        assert!(folded.contains("attach;map_install 60"));
        assert!(!folded.contains("attach 100"), "roots must be excluded");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let hist = Histogram::new();
        hist.observe(0);
        hist.observe(1);
        hist.observe(1023);
        hist.observe(1024);
        let s = hist.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1); // zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[10], 1); // 512..=1023
        assert_eq!(s.buckets[11], 1); // 1024..=2047
        assert_eq!(s.sum, 2048);
    }

    #[test]
    fn concurrent_threads_do_not_corrupt_sums() {
        let h = TraceHandle::enabled();
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let start = t(k * 10_000 + i * 10);
                        h.begin_op(
                            SpanKind::Get,
                            start,
                            Ctx::enclave(k as usize),
                            Timeline::Detached,
                        );
                        h.leaf(SpanKind::NsProcess, start, d(10), Ctx::enclave(k as usize));
                        h.commit_op(start + d(10));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let sums = h.audit().expect("conserved across threads");
        assert_eq!(sums.detached_root_ns, 4 * 250 * 10);
        assert_eq!(h.op_count(SpanKind::Get), 1000);
        assert_eq!(h.spans().len(), 2000, "every root and leaf kept");
        assert_eq!(h.lost_spans(), 0);
    }

    /// Two handles fed the same sequence snapshot equal; absorb folds
    /// snapshots commutatively.
    #[test]
    fn metrics_snapshots_compare_and_fold() {
        let mk = || {
            let h = TraceHandle::enabled();
            h.begin_op(SpanKind::Attach, t(0), Ctx::proc(1, 7), Timeline::Clock);
            h.leaf(SpanKind::MapInstall, t(0), d(100), Ctx::NONE);
            h.commit_op(t(100));
            h.count(Counter::Retransmits, 2);
            h.observe(Hist::DetachNs, 77);
            h
        };
        let a = mk().metrics_snapshot().unwrap();
        let b = mk().metrics_snapshot().unwrap();
        assert_eq!(a, b);
        assert!(TraceHandle::disabled().metrics_snapshot().is_none());

        let mut fold_ab = MetricsSnapshot::zero();
        fold_ab.absorb(&a);
        fold_ab.absorb(&b);
        let mut fold_ba = MetricsSnapshot::zero();
        fold_ba.absorb(&b);
        fold_ba.absorb(&a);
        assert_eq!(fold_ab, fold_ba);
        assert_eq!(fold_ab.sums.clock_root_ns, 200);
        assert_eq!(fold_ab.counters[Counter::Retransmits as usize], 4);
        assert_eq!(fold_ab.hists[Hist::DetachNs as usize].count, 2);
        assert!(fold_ab.render().contains("counter retransmits: 4"));
    }

    /// The merged chrome export is keyed by run id: the same handles
    /// presented in any order produce byte-identical JSON, with pid
    /// lanes namespaced per run.
    #[test]
    fn merged_exports_are_order_independent() {
        let mk = |enclave: usize, ns: u64| {
            let h = TraceHandle::enabled();
            h.begin_op(
                SpanKind::Attach,
                t(0),
                Ctx::enclave(enclave),
                Timeline::Clock,
            );
            h.leaf(SpanKind::MapInstall, t(0), d(ns), Ctx::enclave(enclave));
            h.commit_op(t(ns));
            h
        };
        let r0 = (0u64, mk(1, 40));
        let r1 = (1u64, mk(2, 60));
        let fwd = merge_chrome_trace_json(&[r0.clone(), r1.clone()]);
        let rev = merge_chrome_trace_json(&[r1.clone(), r0.clone()]);
        assert_eq!(fwd, rev);
        assert!(fwd.contains(&format!("\"pid\":{}", RUN_PID_STRIDE + 2)));
        assert!(fwd.contains("\"run\":0") && fwd.contains("\"run\":1"));

        let f_fwd = merge_folded_stacks(&[r0.clone(), r1.clone()]);
        let f_rev = merge_folded_stacks(&[r1, r0]);
        assert_eq!(f_fwd, f_rev);
        assert!(f_fwd.contains("attach;map_install 100"), "{f_fwd}");
    }

    #[test]
    fn spans_carry_parent_links_and_timeline() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(100), Ctx::proc(1, 7), Timeline::Clock);
        h.leaf(SpanKind::IpiWait, t(100), d(30), Ctx::enclave(1));
        h.commit_op(t(130));
        h.leaf(SpanKind::MapContention, t(5), d(25), Ctx::enclave(2));
        let spans = h.spans();
        let leaf = spans.iter().find(|s| s.kind == SpanKind::IpiWait).unwrap();
        assert_eq!(leaf.parent_kind, SpanKind::Attach);
        assert_eq!(leaf.parent_start, t(100));
        assert_eq!(leaf.timeline, Timeline::Clock);
        assert!(!leaf.self_rooted && !leaf.root);
        let root = spans.iter().find(|s| s.root).unwrap();
        assert_eq!(root.parent_kind, SpanKind::Attach);
        assert_eq!(root.parent_start, root.start);
        let sr = spans
            .iter()
            .find(|s| s.kind == SpanKind::MapContention)
            .unwrap();
        assert!(sr.self_rooted && !sr.root);
        assert_eq!(sr.timeline, Timeline::Detached);
        assert_eq!(sr.parent_start, sr.start);
    }

    #[test]
    fn edges_record_count_and_sort_by_content() {
        let h = TraceHandle::enabled();
        h.edge(
            EdgeKind::BackoffRetry,
            t(50),
            t(90),
            Ctx::enclave(1),
            Ctx::enclave(1),
        );
        h.send_recv(t(10), t(30), Ctx::enclave(0), Ctx::enclave(2), 7, 64);
        let edges = h.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].kind, EdgeKind::SendRecv, "sorted by src time");
        assert_eq!((edges[0].msg, edges[0].bytes), (7, 64), "message kept");
        assert_eq!((edges[1].msg, edges[1].bytes), (0, 0));
        assert_eq!(edges[1].dst, t(90));
        assert_eq!(h.edge_count(EdgeKind::SendRecv), 1);
        assert_eq!(h.edge_count(EdgeKind::BackoffRetry), 1);
        assert_eq!(h.edge_count(EdgeKind::RevokeAck), 0);
        let disabled = TraceHandle::disabled();
        disabled.edge(EdgeKind::SendRecv, t(0), t(1), Ctx::NONE, Ctx::NONE);
        assert!(disabled.edges().is_empty());
        let snap = h.metrics_snapshot().unwrap();
        assert_eq!(snap.edge_counts[EdgeKind::SendRecv as usize], 1);
    }

    #[test]
    fn lost_counts_track_ring_overwrites() {
        let h = TraceHandle::with_capacity(4, 1);
        assert_eq!(h.lost_spans(), 0);
        for i in 0..10 {
            h.leaf(SpanKind::MapContention, t(i), d(1), Ctx::enclave(0));
        }
        assert_eq!(h.lost_spans(), 6, "10 pushes into a 4-slot ring");
        assert_eq!(h.lost_edges(), 0);
    }

    #[test]
    fn escape_frame_escapes_separators_only() {
        assert!(matches!(
            escape_frame("map_install"),
            std::borrow::Cow::Borrowed("map_install")
        ));
        assert_eq!(escape_frame("a;b c"), "a%3bb%20c");
        assert_eq!(escape_frame("tab\there"), "tab%09here");
        assert_eq!(escape_frame("line\nbreak"), "line%0abreak");
        assert_eq!(escape_frame("50%"), "50%25");
    }

    #[test]
    fn obs_report_is_merge_order_independent_and_integer_exact() {
        let mk = |enclave: usize, ns: u64| {
            let h = TraceHandle::enabled();
            h.begin_op(
                SpanKind::Attach,
                t(0),
                Ctx::enclave(enclave),
                Timeline::Clock,
            );
            h.leaf(SpanKind::MapInstall, t(0), d(ns), Ctx::enclave(enclave));
            h.commit_op(t(ns));
            h.edge(
                EdgeKind::SendRecv,
                t(0),
                t(ns),
                Ctx::enclave(enclave),
                Ctx::enclave(enclave + 1),
            );
            h
        };
        let r0 = (0u64, mk(1, 40));
        let r1 = (1u64, mk(2, 60));
        let fwd = merge_obs_report(&[r0.clone(), r1.clone()]);
        let rev = merge_obs_report(&[r1, r0]);
        assert_eq!(fwd, rev);
        assert!(fwd.starts_with(OBS_REPORT_HEADER));
        assert!(fwd.contains("run 0\n") && fwd.contains("run 1\n"));
        assert!(fwd.contains("sums 40 40 0 0\n"), "{fwd}");
        assert!(fwd.contains("span c r attach attach 0 40 attach 0 1 0 0\n"));
        assert!(fwd.contains("span c l attach map_install 0 40 attach 0 1 0 0\n"));
        assert!(fwd.contains("edge send_recv 0 40 1 0 0 2 0 0\n"));
        assert!(fwd.contains("op_count attach 1\n"));
        assert!(fwd.contains("edge_count send_recv 1\n"));
        assert!(fwd.contains("lost 0 0\n"));
        assert!(fwd.contains("end 1\n"));
    }

    #[test]
    fn prometheus_exposition_covers_the_registry() {
        let h = TraceHandle::enabled();
        h.begin_op(SpanKind::Attach, t(0), Ctx::proc(1, 7), Timeline::Clock);
        h.leaf(SpanKind::MapInstall, t(0), d(100), Ctx::NONE);
        h.commit_op(t(100));
        h.count(Counter::Retransmits, 2);
        h.edge(EdgeKind::RevokeAck, t(1), t(2), Ctx::NONE, Ctx::NONE);
        h.count_shard(3, ShardCounter::Lookups, 5);
        h.observe_shard_lookup(3, 700);
        let text = h.metrics_snapshot().unwrap().prometheus();
        assert!(text.contains("xemem_attributed_ns{timeline=\"clock\",level=\"root\"} 100"));
        assert!(text.contains("xemem_ops_total{op=\"attach\"} 1"));
        assert!(text.contains("xemem_ops_total{op=\"detach\"} 0"), "{text}");
        assert!(text.contains("xemem_edges_total{kind=\"revoke_ack\"} 1"));
        assert!(text.contains("# TYPE xemem_retransmits counter\nxemem_retransmits 2"));
        assert!(text.contains("# TYPE xemem_attach_ns histogram"));
        assert!(text.contains("xemem_attach_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("xemem_attach_ns_sum 100"));
        assert!(text.contains("xemem_shard_lookups{shard=\"3\"} 5"));
        assert!(text.contains("xemem_shard_lookup_ns_bucket{shard=\"3\",le=\"1023\"} 1"));
        assert!(text.contains("xemem_shard_lookup_ns_count{shard=\"3\"} 1"));
    }
}
