//! The multi-enclave system: topology construction, enclave registration,
//! and the command-routing engine (paper §3.2, §4.2, Fig. 3).
//!
//! A [`System`] owns one node's physical memory, its enclaves (native
//! kernels and Palacios VMs arranged in a tree), the name server, and a
//! virtual clock. Cross-enclave commands are executed synchronously: each
//! hop charges channel costs (contending on the core-0 IPI handler where
//! applicable), the name server charges its processing cost, and the
//! serving/attaching kernels charge their real per-page mapping work.
//!
//! Two API layers exist:
//!
//! * The `*_at` methods take an explicit start time and return completion
//!   times without touching the clock — used by concurrency experiments
//!   (paper Fig. 6) that interleave many enclaves on one timeline.
//! * The clock-based XPMEM API in [`crate::api`] wraps them for
//!   sequential use.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::api::Framed;
use crate::channel::{Direction, Link, LinkCharge};
use crate::enclave::{
    ApidRecord, AttachRecord, AttachState, EnclaveKind, GuestOs, Lease, SegRecord, Slot,
};
use crate::error::XememError;
use crate::ids::{AccessMode, Apid, EnclaveId, EnclaveRef, ProcessRef, Segid};
use crate::name_server::NameService;
use crate::protocol::MessageKind;
use xemem_fwk::Fwk;
use xemem_kitten::Kitten;
use xemem_mem::{
    AttachSemantics, KernelError, KernelKind, MemError, PfnList, PhysicalMemory, Pid, VirtAddr,
    PAGE_SIZE,
};
use xemem_palacios::{MemoryMapKind, Vmm};
use xemem_pisces::{Core0Handler, IpiChannel, NodeResources};
use xemem_sim::{
    Clock, CostModel, FaultInjector, FaultKind, FaultPlan, FxHashMap, MemTier, SimDuration,
    SimTime, TierPolicy,
};
use xemem_trace::{Counter, Ctx, EdgeKind, Hist, ShardCounter, SpanKind, Timeline, TraceHandle};

/// Bound on per-hop retransmissions under injected message loss: after
/// this many consecutive drops the channel is assumed to have recovered
/// (keeps pathological probability-1.0 loss windows from livelocking).
const MAX_RETRANSMITS: u32 = 64;

/// One remote mapping of an exported segment, indexed exporter-side so
/// the revocation protocol knows whom to notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttachSite {
    slot: usize,
    pid: Pid,
    va: u64,
}

/// Frames quarantined out of a dead exporter's ownership, held until the
/// last remote attachment reap drops the refcount — only then do they
/// return to the owner enclave's allocator (or retire with its
/// partition, when the whole enclave is gone).
#[derive(Debug)]
struct Loan {
    owner_slot: usize,
    segid: Segid,
    frames: PfnList,
    refs: usize,
}

/// Timing breakdown of one attachment, for experiment drivers.
#[derive(Debug, Clone, Copy)]
pub struct AttachOutcome {
    /// Base address of the new mapping in the attaching process.
    pub va: VirtAddr,
    /// Completion time on the caller's timeline.
    pub end: SimTime,
    /// Time routing the request to the owner (channels + forwarding +
    /// name-server processing).
    pub route_request: SimDuration,
    /// Time the owning enclave spent generating the PFN list.
    pub serve: SimDuration,
    /// Time routing the PFN-list reply back (bulk payload).
    pub route_reply: SimDuration,
    /// Time the attaching enclave spent installing the mapping.
    pub map: SimDuration,
}

/// One crash observed by the system, queued for subscribers that keep
/// derived per-enclave state (the buffer-pool service layer's sweeper):
/// [`System::drain_crash_notices`] hands them out exactly once, in the
/// order the crashes landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashNotice {
    /// Slot index of the enclave the crash hit.
    pub slot: usize,
    /// Pid of the dead process, or `None` when the whole enclave died.
    pub pid: Option<u32>,
    /// Virtual time the crash landed.
    pub at: SimTime,
}

/// One executed tier migration, reported by the policy tick so callers
/// (benches, tests) can see what moved and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierMove {
    /// The migrated segment.
    pub segid: Segid,
    /// Chunk index within the segment (policy granularity).
    pub chunk: u64,
    /// Tier the chunk lived in before the move.
    pub from: MemTier,
    /// Tier the chunk lives in now.
    pub to: MemTier,
    /// Resident pages actually moved (sparse chunks move fewer).
    pub pages: u64,
}

/// Hot/cold state of one policy chunk of an exported segment.
#[derive(Debug, Clone, Copy)]
struct ChunkState {
    /// Tier the chunk's resident frames currently live in.
    tier: MemTier,
    /// Accesses observed in the open window.
    hits: u64,
    /// Consecutive closed windows at or above the hot threshold.
    hot: u32,
    /// Consecutive closed windows at or below the cold threshold.
    cold: u32,
}

impl ChunkState {
    fn new(tier: MemTier) -> Self {
        ChunkState {
            tier,
            hits: 0,
            hot: 0,
            cold: 0,
        }
    }
}

/// Tier-directory record of one exported segment: where each policy
/// chunk's frames live and how hot it has been, all in virtual time.
#[derive(Debug, Clone)]
struct TierSeg {
    /// Tier cold chunks demote back to (the exporter's home tier).
    home: MemTier,
    /// Per-chunk tier + access-frequency state.
    chunks: Vec<ChunkState>,
    /// Start of the currently open counting window.
    window_start: SimTime,
}

/// The multi-enclave node.
pub struct System {
    pub(crate) cost: CostModel,
    clock: Clock,
    phys: Arc<PhysicalMemory>,
    pub(crate) slots: Vec<Slot>,
    ns_slot: usize,
    name_service: NameService,
    id_to_slot: FxHashMap<EnclaveId, usize>,
    next_apid: u64,
    core0: Core0Handler,
    last_vm_breakdown: Option<xemem_palacios::AttachBreakdown>,
    /// NUMA zone of each slot's memory partition.
    zones: Vec<u32>,
    /// Deterministic fault injector (None when no plan is armed).
    injector: Option<FaultInjector>,
    /// (owner slot, segid) → remote attachment sites; fed by every
    /// successful attach, consumed by the revocation protocol.
    attachers: FxHashMap<(usize, Segid), Vec<AttachSite>>,
    /// Exporter-side permit refcounts: (owner slot, segid) → outstanding
    /// `xpmem_get` grants.
    grants: FxHashMap<(usize, Segid), u64>,
    /// Frames on loan from dead exporters (see [`Loan`]).
    loans: Vec<Loan>,
    /// Crashes not yet drained by [`System::drain_crash_notices`].
    crash_notices: Vec<CrashNotice>,
    /// Hot/cold migration policy (disabled by default: counters tick,
    /// nothing moves, every charge stays byte-identical to pre-tier).
    tier_policy: TierPolicy,
    /// Tier directory: (owner slot, segid) → per-chunk tier + access
    /// state. A `BTreeMap` so policy sweeps iterate in a deterministic
    /// order at any `--jobs`/`--lanes`.
    tier_dir: BTreeMap<(usize, Segid), TierSeg>,
    /// Virtual-time span/metrics sink. Disabled handles are inert
    /// (inlined `None` branch — no allocation on any hot path), and the
    /// virtual-time arithmetic is identical either way.
    tracer: TraceHandle,
}

impl System {
    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The calibrated cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The observability handle this system charges spans and metrics
    /// to (disabled unless set via [`SystemBuilder::with_tracer`]). Its
    /// counters and op counts are the only record of crashes,
    /// revocations, reaps, name-service retries, lease serves and
    /// failovers. Experiment drivers use it to frame detached-timeline
    /// ops and to run the conservation auditor.
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// The node's physical memory (for white-box assertions in tests).
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// The shared core-0 IPI handler (diagnostics).
    pub fn core0(&self) -> &Core0Handler {
        &self.core0
    }

    /// Find an enclave by name.
    pub fn enclave_by_name(&self, name: &str) -> Option<EnclaveRef> {
        self.slots
            .iter()
            .position(|s| s.name == name)
            .map(EnclaveRef)
    }

    /// The enclave's protocol-level ID.
    pub fn enclave_id(&self, e: EnclaveRef) -> Option<EnclaveId> {
        self.slots.get(e.0).and_then(|s| s.id)
    }

    /// The NUMA zone an enclave's memory lives in.
    pub fn enclave_zone(&self, e: EnclaveRef) -> Option<u32> {
        self.zones.get(e.0).copied()
    }

    /// Number of enclaves.
    pub fn enclave_count(&self) -> usize {
        self.slots.len()
    }

    /// The Palacios-side timing breakdown of the most recent attachment
    /// that was installed by a VM enclave (Table 2's "(w/o rb-tree
    /// inserts)" column; `None` until a VM attaches).
    pub fn last_vm_breakdown(&self) -> Option<xemem_palacios::AttachBreakdown> {
        self.last_vm_breakdown
    }

    /// Direct access to an enclave's VMM, when it is a VM (ablations and
    /// white-box tests).
    pub fn vmm_mut(&mut self, e: EnclaveRef) -> Option<&mut Vmm> {
        match &mut self.slots.get_mut(e.0)?.kind {
            EnclaveKind::Vm(vmm) => Some(vmm),
            EnclaveKind::Native(_) => None,
        }
    }

    /// The name service: shard layout, leadership, epochs and failover
    /// counts (white-box assertions in tests and experiment drivers).
    pub fn name_service(&self) -> &NameService {
        &self.name_service
    }

    /// Whether an enclave is still alive (crashed/destroyed enclaves stay
    /// in the slot table but reject every operation).
    pub fn enclave_alive(&self, e: EnclaveRef) -> bool {
        self.slots.get(e.0).map(|s| s.alive).unwrap_or(false)
    }

    /// Free frames in an enclave's allocator (leak detection in tests;
    /// for VM enclaves this is the guest allocator).
    pub fn free_frames_of(&self, e: EnclaveRef) -> Option<u64> {
        self.slots.get(e.0).map(|s| match &s.kind {
            EnclaveKind::Native(k) => k.free_frame_count(),
            EnclaveKind::Vm(vmm) => vmm.guest().free_frame_count(),
        })
    }

    /// Number of unresolved frame loans (teardown still draining
    /// refcounts). Zero once every revocation has settled.
    pub fn outstanding_loans(&self) -> usize {
        self.loans.len()
    }

    /// Crashes (process kills, enclave crashes, destroys) recorded since
    /// the last drain, in landing order. Consumers with derived
    /// per-enclave state — the buffer-pool sweeper above all — poll this
    /// to reclaim what the dead held; each notice is delivered once.
    pub fn drain_crash_notices(&mut self) -> Vec<CrashNotice> {
        std::mem::take(&mut self.crash_notices)
    }

    /// Outstanding `xpmem_get` grants against a segment — the
    /// exporter-side refcount dropped by release and by attacher exit.
    pub fn outstanding_grants(&self, e: EnclaveRef, segid: Segid) -> u64 {
        self.grants.get(&(e.0, segid)).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Fault injection and crash-consistent teardown
    // ------------------------------------------------------------------

    /// Deliver every injected fault due at or before the current clock.
    /// Normally faults piggyback on API calls; end-of-run drains (e.g. a
    /// final pool crash sweep after the last workload op) call this
    /// explicitly so late-scheduled crashes still land and notify.
    pub fn deliver_pending_faults(&mut self) {
        self.process_faults(self.clock.now());
    }

    /// Deliver injected faults due at or before `now`. Polled at the head
    /// of every operation and at attach's intermediate timestamps, so
    /// crashes land between protocol steps deterministically.
    fn process_faults(&mut self, now: SimTime) {
        let Some(injector) = self.injector.as_mut() else {
            return;
        };
        let due = injector.due_events(now);
        for ev in due {
            match ev.kind {
                // Outage windows (name service and tiers) need no
                // delivery: the injector tracks their horizons, and
                // name-service calls back off and migrations into a dark
                // tier fail until they pass.
                FaultKind::NameServerOutage { .. } | FaultKind::TierOutage { .. } => {}
                FaultKind::EnclaveCrash { slot } | FaultKind::PoolConsumerCrash { slot, .. } => {
                    let slot = slot % self.slots.len();
                    // A shard with no surviving replica would lose its
                    // slice of the namespace for good, so the last
                    // replica's failure mode is the bounded outage
                    // (scheduled separately), not a crash.
                    if !self.name_service.is_sole_replica(slot) && self.slots[slot].alive {
                        // Injected crashes run between operations; their
                        // teardown cost lives on the detached timeline so
                        // the clock audit still balances exactly.
                        let (kind, ctx) = (SpanKind::InjectedCrash, Ctx::enclave(slot));
                        let _ = self.framed(kind, ctx, Timeline::Detached, ev.at, |sys, at| {
                            Ok(((), sys.crash_enclave_internal(slot, at)))
                        });
                    }
                }
                FaultKind::ProcessKill { slot, pid } => {
                    let slot = slot % self.slots.len();
                    if self.slots[slot].alive {
                        let p = ProcessRef {
                            enclave: EnclaveRef(slot),
                            pid: Pid(pid),
                        };
                        // Killing a pid that does not exist is a no-op.
                        let (kind, ctx) = (SpanKind::InjectedKill, Ctx::proc(slot, pid));
                        let _ = self.framed(kind, ctx, Timeline::Detached, ev.at, |sys, at| {
                            sys.crash_process_internal(p, at).map(|end| ((), end))
                        });
                    }
                }
            }
        }
    }

    /// True when name-service `shard` can answer at `at`: no injected
    /// outage covers it (global or shard-scoped), no election window is
    /// running, and a leader replica survives.
    fn ns_shard_available(&self, shard: usize, at: SimTime) -> bool {
        self.injector
            .as_ref()
            .map(|i| i.ns_shard_available(shard, at))
            .unwrap_or(true)
            && self.name_service.unavailable_until(shard, at).is_none()
            && self.name_service.leader_slot(shard).is_some()
    }

    /// Wait out a shard outage (injected, or a failover election) with
    /// exponential backoff in virtual time: attempt `k` sleeps
    /// `ns_retry_base_ns << k`. Returns the time the shard answered, or
    /// `NameServerUnavailable` — attributed to the shard — once the
    /// retry budget is exhausted. Every retry lands in the retry/backoff
    /// counters, service-wide and per shard.
    fn ns_backoff(&mut self, shard: usize, mut at: SimTime) -> Result<SimTime, XememError> {
        if self.ns_shard_available(shard, at) {
            return Ok(at);
        }
        let ctx = Ctx::enclave(self.name_service.leader_slot(shard).unwrap_or(self.ns_slot));
        let (mut attempts, mut total, mut answered) = (0, SimDuration::ZERO, false);
        while !answered && attempts < self.cost.ns_retry_max_attempts {
            let wait = SimDuration::from_nanos(self.cost.ns_retry_base_ns << attempts.min(20));
            let next = self.tracer.charge(SpanKind::NsBackoff, at, wait, ctx);
            self.tracer.edge(EdgeKind::BackoffRetry, at, next, ctx, ctx);
            (at, total, attempts) = (next, total + wait, attempts + 1);
            answered = self.ns_shard_available(shard, at);
        }
        let retries = u64::from(attempts);
        self.tracer.count(Counter::NsRetries, retries);
        self.tracer.count(Counter::NsBackoffNs, total.as_nanos());
        self.tracer.observe(Hist::NsRetriesPerOp, retries);
        self.tracer
            .count_shard(shard, ShardCounter::Retries, retries);
        self.tracer
            .count_shard(shard, ShardCounter::BackoffNs, total.as_nanos());
        if answered {
            return Ok(at);
        }
        Err(XememError::NameServerUnavailable {
            shard,
            attempts,
            backoff: total,
        })
    }

    /// Reach the leader of `shard` for a call only it can answer: charge
    /// the client-side hash-ring probe that picks the shard (free in the
    /// single-shard configuration, which has no ring), then ride out
    /// outages and elections with [`Self::ns_backoff`]. Returns the
    /// leader's slot and the time it answers.
    fn reach_leader(
        &mut self,
        slot_idx: usize,
        shard: usize,
        mut at: SimTime,
    ) -> Result<(usize, SimTime), XememError> {
        if self.name_service.shard_count() > 1 {
            let probe = SimDuration::from_nanos(self.cost.ns_shard_route_ns);
            at = self
                .tracer
                .charge(SpanKind::NsShardRoute, at, probe, Ctx::enclave(slot_idx));
        }
        let at = self.ns_backoff(shard, at)?;
        let leader = self
            .name_service
            .leader_slot(shard)
            .expect("an available shard has a leader");
        Ok((leader, at))
    }

    /// Revoke every live lease on `segid` before its removal is acked:
    /// the shard leader sends each holder a `LeaseRevoke`, the holder
    /// purges its cached entry and acks. After this returns, no enclave
    /// can serve the dead registration from its lease cache.
    fn revoke_leases(&mut self, segid: Segid, mut at: SimTime) -> SimTime {
        let holders = self.name_service.take_lease_holders(segid, at);
        if holders.is_empty() {
            return at;
        }
        let Ok(shard) = self.name_service.shard_of_segid(segid) else {
            return at;
        };
        let Some(leader) = self.name_service.leader_slot(shard) else {
            return at;
        };
        for (holder, _expires) in holders {
            self.slots[holder].owner_leases.remove(&segid);
            self.slots[holder]
                .name_leases
                .retain(|_, l| l.value != segid);
            self.tracer
                .count_shard(shard, ShardCounter::LeaseRevocations, 1);
            if holder != leader && self.slots[holder].alive {
                if let Ok(path) = self.path_to(leader, holder) {
                    let revoked_at =
                        self.charge_hops(&path, MessageKind::LeaseRevoke, Some(segid), at);
                    at = revoked_at;
                    if let Ok(back) = self.path_to(holder, leader) {
                        at = self.charge_hops(&back, MessageKind::LeaseRevokeAck, Some(segid), at);
                        self.tracer.edge(
                            EdgeKind::RevokeAck,
                            revoked_at,
                            at,
                            Ctx::seg(holder, 0, segid.0),
                            Ctx::seg(leader, 0, segid.0),
                        );
                    }
                }
            }
        }
        at
    }

    /// Abruptly kill a process (clock-based): exported frames still
    /// mapped remotely are quarantined, attaching enclaves are revoked
    /// and reaped, permits dropped, and the kernel reclaims the rest.
    /// Unlike [`Self::exit_process`] nothing is torn down gracefully —
    /// this is the path fault injection drives.
    pub fn crash_process(&mut self, p: ProcessRef) -> Result<(), XememError> {
        self.process_faults(self.clock.now());
        self.clocked(
            SpanKind::CrashProcess,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| sys.crash_process_internal(p, at).map(|end| ((), end)),
        )
    }

    fn crash_process_internal(
        &mut self,
        p: ProcessRef,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        let slot_idx = p.enclave.0;
        live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        self.crash_notices.push(CrashNotice {
            slot: slot_idx,
            pid: Some(p.pid.0),
            at,
        });
        let t = self.tear_down(slot_idx, Some(p.pid), at);
        self.kernel_exit(p, t)
    }

    /// The kernel reclaims whatever the process still owns (quarantined
    /// frames excluded — they are on loan). Returns the completion time.
    fn kernel_exit(&mut self, p: ProcessRef, at: SimTime) -> Result<SimTime, XememError> {
        let exited = self.slots[p.enclave.0].kind.kernel_mut().exit(p.pid)?;
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        Ok(self
            .tracer
            .charge(SpanKind::KernelExit, at, exited.cost, ctx))
    }

    /// Administratively destroy an enclave (clock-based): its hosted VMs
    /// die with it, its exports are revoked everywhere, its remote
    /// attachments are dropped, and its partition is retired. The
    /// name-server enclave cannot be destroyed.
    pub fn destroy_enclave(&mut self, e: EnclaveRef) -> Result<(), XememError> {
        self.process_faults(self.clock.now());
        self.clocked(SpanKind::DestroyEnclave, Ctx::enclave(e.0), |sys, at| {
            live_slot(sys.slots.get_mut(e.0), e)?;
            if sys.name_service.is_sole_replica(e.0) {
                return Err(XememError::Topology(
                    "the name-server enclave cannot be destroyed".into(),
                ));
            }
            Ok(((), sys.crash_enclave_internal(e.0, at)))
        })
    }

    /// Shared crash/destroy machinery. The slot is marked dead first, so
    /// the revocation notices originate from the name server (the owner
    /// kernel can no longer send).
    fn crash_enclave_internal(&mut self, slot_idx: usize, at: SimTime) -> SimTime {
        // Hosted VMs die with their host.
        let children: Vec<usize> = self.slots[slot_idx].children.clone();
        let mut t = at;
        for c in children {
            if self.slots[c].alive {
                t = self.crash_enclave_internal(c, t);
            }
        }
        self.crash_notices.push(CrashNotice {
            slot: slot_idx,
            pid: None,
            at: t,
        });
        self.slots[slot_idx].alive = false;
        // Name-service failover: every shard this slot led promotes its
        // lowest-position surviving follower, loses whatever had not
        // replicated, bumps its epoch (fencing outstanding leases) and
        // goes dark for the election timeout.
        let reports = self.name_service.on_slot_dead(slot_idx, t);
        for r in &reports {
            self.tracer.count_shard(r.shard, ShardCounter::Failovers, 1);
            self.tracer.count_shard(
                r.shard,
                ShardCounter::LostRegistrations,
                r.lost_registrations,
            );
            // Causal chain: the crash triggers the failover, and the
            // failover resolves when the shard's election dark window
            // ends and the promoted follower starts serving.
            let promoted = Ctx::seg(r.new_leader.unwrap_or(slot_idx), 0, r.shard as u64);
            let dead = Ctx::enclave(slot_idx);
            self.tracer
                .edge(EdgeKind::CrashFailover, t, t, dead, promoted);
            self.tracer.edge(
                EdgeKind::FailoverPromotion,
                t,
                r.available_at,
                promoted,
                promoted,
            );
        }
        // Its partition is retired wholesale, so there is nothing to
        // quarantine: remote reapers unmap and the refcounts drain to
        // nothing.
        self.tear_down(slot_idx, None, t)
    }

    /// Crash teardown of one process (`Some(pid)`) or of every process
    /// of a dead enclave (`None`), before the kernel reclaims memory:
    /// 1. withdraw each export from the name server and everywhere else
    ///    ([`Self::withdraw_export`]; with `Some(pid)` the still-mapped
    ///    frames are quarantined first, while a dead enclave's
    ///    partition is retired whole);
    /// 2. drop the sites of attachments it held against other exporters,
    ///    with their loan refcounts;
    /// 3. drop the exporter-side grant refcounts its permits pinned.
    ///
    /// Each step runs in sorted order, so teardown (and thus the trace
    /// and any RNG-dependent hop decisions) never depends on map
    /// iteration. Returns the completion time.
    fn tear_down(&mut self, slot_idx: usize, pid: Option<Pid>, mut t: SimTime) -> SimTime {
        let dead = |p: Pid| pid.is_none_or(|d| d == p);
        let my_id = self.slots[slot_idx].id;
        let mut segids: Vec<Segid> = self.slots[slot_idx]
            .segs
            .iter()
            .filter(|(_, r)| dead(r.pid))
            .map(|(s, _)| *s)
            .collect();
        segids.sort();
        for segid in segids {
            // A registration may already be gone: a failover (now or
            // earlier in the run) dropped it as unreplicated.
            if let Some(id) = my_id {
                let _ = self.name_service.remove_segid(segid, id, t);
            }
            t = self.withdraw_export(slot_idx, segid, pid, t);
        }
        let mut held: Vec<((Pid, u64), AttachRecord)> = self.slots[slot_idx]
            .attachments
            .iter()
            .filter(|((p, _), _)| dead(*p))
            .map(|(k, rec)| (*k, *rec))
            .collect();
        held.sort_by_key(|(k, _)| *k);
        for ((p, va), rec) in held {
            self.drop_site(slot_idx, p, va, rec);
        }
        let mut permits: Vec<(Apid, Segid, EnclaveId)> = self.slots[slot_idx]
            .apids
            .iter()
            .filter(|(_, r)| dead(r.pid))
            .map(|(a, r)| (*a, r.segid, r.owner))
            .collect();
        permits.sort();
        for (apid, segid, owner) in permits {
            self.slots[slot_idx].apids.remove(&apid);
            self.slots[slot_idx].released.insert(apid);
            self.drop_grant(owner, segid);
        }
        t
    }

    /// Withdraw one export whose name-service registration is already
    /// gone: revoke every live lease on it, drop its local record, grant
    /// refcounts and tier-directory entry, then run the revocation
    /// protocol ([`Self::revoke_segment`]). `crashed` names the exporting
    /// process when it died: frames remote enclaves still map are then
    /// quarantined out of it and lent to the attachers until the last
    /// reap. Quarantine stays between the lease revocation and the
    /// segment's: moving it would shift when the revocation notices
    /// contend for the IPI calendar. Returns the completion time.
    fn withdraw_export(
        &mut self,
        slot_idx: usize,
        segid: Segid,
        crashed: Option<Pid>,
        t: SimTime,
    ) -> SimTime {
        let mut t = self.revoke_leases(segid, t);
        let seg = self.slots[slot_idx].segs.remove(&segid);
        self.grants.remove(&(slot_idx, segid));
        self.tier_dir.remove(&(slot_idx, segid));
        let mapped = self
            .attachers
            .get(&(slot_idx, segid))
            .is_some_and(|v| !v.is_empty());
        let mut loan = None;
        if let (Some(pid), Some(seg), true) = (crashed, seg, mapped) {
            let kernel = self.slots[slot_idx].kind.kernel_mut();
            if let Ok(c) = kernel.retain_frames(pid, seg.va, seg.len) {
                let ctx = Ctx::seg(slot_idx, pid.0, segid.0);
                t = self.tracer.charge(SpanKind::Quarantine, t, c.cost, ctx);
                self.tracer
                    .count(Counter::FramesQuarantined, c.value.pages());
                loan = Some(c.value);
            }
        }
        self.revoke_segment(slot_idx, segid, loan, t)
    }

    /// Owner-side revocation of one segment: notify every attaching
    /// enclave (charged Revoke/RevokeAck hops through the routing
    /// fabric), run their reapers, and drain the loan refcounts.
    /// `loan_frames` carries quarantined frames when the exporter died;
    /// `None` when the exporter lives on (`xpmem_remove`) and keeps its
    /// own frames.
    fn revoke_segment(
        &mut self,
        owner_slot: usize,
        segid: Segid,
        loan_frames: Option<PfnList>,
        mut at: SimTime,
    ) -> SimTime {
        let sites = self
            .attachers
            .remove(&(owner_slot, segid))
            .unwrap_or_default();
        if let Some(frames) = loan_frames {
            self.loans.push(Loan {
                owner_slot,
                segid,
                frames,
                refs: sites.len(),
            });
        }
        if sites.is_empty() {
            self.settle_loan(owner_slot, segid);
            return at;
        }
        // A dead owner cannot send; the segment's shard leader (which
        // observed the death when the registration was withdrawn)
        // notifies instead.
        let notifier = if self.slots[owner_slot].alive {
            owner_slot
        } else {
            self.name_service
                .shard_of_segid(segid)
                .ok()
                .and_then(|s| self.name_service.leader_slot(s))
                .unwrap_or(self.ns_slot)
        };
        let bk = SimDuration::from_nanos(self.cost.revoke_bookkeeping_ns);
        for site in sites {
            let ctx = Ctx::seg(owner_slot, 0, segid.0);
            at = self.tracer.charge(SpanKind::RevokeBookkeeping, at, bk, ctx);
            self.tracer.count(Counter::RevokeNotices, 1);
            // A notice that cannot be routed (a dead enclave on the way)
            // costs nothing: the reap still happens, the message costs
            // just cannot be charged across a vanished fabric.
            let mut t = at;
            if site.slot != notifier {
                if let Ok(path) = self.path_to(notifier, site.slot) {
                    t = self.charge_hops(&path, MessageKind::Revoke, Some(segid), t);
                }
            }
            t = self.reap_site(site, t);
            if site.slot != notifier {
                if let Ok(path) = self.path_to(site.slot, notifier) {
                    t = self.charge_hops(&path, MessageKind::RevokeAck, Some(segid), t);
                }
            }
            at = t;
            self.drop_loan_ref(owner_slot, segid);
        }
        at
    }

    /// The attacher-side reaper: unmap one dead attachment and mark it
    /// `Reaped` so data access fails with `SourceGone` instead of
    /// reading stale bytes. Returns the completion time.
    fn reap_site(&mut self, site: AttachSite, at: SimTime) -> SimTime {
        let reap_ns = self.cost.reap_unmap_ns;
        let slot = &mut self.slots[site.slot];
        if let Some(rec) = slot.attachments.get_mut(&(site.pid, site.va)) {
            rec.state = AttachState::Revoking;
        }
        if !slot.alive {
            // The attacher died first; its partition is already retired,
            // so there is nothing left to unmap.
            if let Some(rec) = slot.attachments.get_mut(&(site.pid, site.va)) {
                rec.state = AttachState::Reaped;
            }
            return at;
        }
        let unmap = match &mut slot.kind {
            EnclaveKind::Native(k) => k.detach(site.pid, VirtAddr(site.va)).map(|c| c.cost),
            EnclaveKind::Vm(vmm) => vmm
                .revoke_guest_attachment(site.pid, VirtAddr(site.va))
                .map(|c| c.cost),
        }
        .unwrap_or(SimDuration::ZERO); // process already gone: nothing mapped
        if let Some(rec) = slot.attachments.get_mut(&(site.pid, site.va)) {
            rec.state = AttachState::Reaped;
        }
        let reap = unmap + SimDuration::from_nanos(reap_ns);
        let ctx = Ctx::proc(site.slot, site.pid.0);
        let end = self.tracer.charge(SpanKind::ReapUnmap, at, reap, ctx);
        self.tracer.count(Counter::Reaps, 1);
        end
    }

    /// Drop one reference to the loan on `(owner_slot, segid)`, if there
    /// is one, and settle it once the last reference is gone.
    fn drop_loan_ref(&mut self, owner_slot: usize, segid: Segid) {
        if let Some(loan) = self
            .loans
            .iter_mut()
            .find(|l| l.owner_slot == owner_slot && l.segid == segid)
        {
            loan.refs = loan.refs.saturating_sub(1);
        }
        self.settle_loan(owner_slot, segid);
    }

    /// Resolve a loan whose refcount drained: hand the quarantined frames
    /// back to the owner's allocator, or retire them with the owner's
    /// partition when the owner enclave itself is gone.
    fn settle_loan(&mut self, owner_slot: usize, segid: Segid) {
        let Some(pos) = self
            .loans
            .iter()
            .position(|l| l.owner_slot == owner_slot && l.segid == segid && l.refs == 0)
        else {
            return;
        };
        let loan = self.loans.swap_remove(pos);
        if self.slots[owner_slot].alive {
            let returned = self.slots[owner_slot]
                .kind
                .kernel_mut()
                .return_frames(&loan.frames)
                .is_ok();
            if returned {
                // return_frames' cost is deliberately not charged (the
                // owner's allocator absorbs it asynchronously), so this
                // records a counter only — adding a time leaf here would
                // break bit-identical virtual time with tracing off.
                self.tracer
                    .count(Counter::FramesReturned, loan.frames.pages());
            }
        } else {
            self.tracer
                .count(Counter::FramesRetired, loan.frames.pages());
        }
    }

    /// Remove one attachment site from the exporter-side index and drop
    /// its loan refcount (attacher-side teardown: detach, exit, crash).
    fn drop_site(&mut self, slot_idx: usize, pid: Pid, va: u64, rec: AttachRecord) {
        if let Some(&owner_slot) = self.id_to_slot.get(&rec.owner) {
            if let Some(sites) = self.attachers.get_mut(&(owner_slot, rec.segid)) {
                sites.retain(|s| !(s.slot == slot_idx && s.pid == pid && s.va == va));
                if sites.is_empty() {
                    self.attachers.remove(&(owner_slot, rec.segid));
                }
            }
            self.drop_loan_ref(owner_slot, rec.segid);
        }
        self.slots[slot_idx].attachments.remove(&(pid, va));
        self.slots[slot_idx].detached.insert((pid, va));
    }

    /// Decrement the exporter-side grant refcount for one released (or
    /// abandoned) permit.
    fn drop_grant(&mut self, owner: EnclaveId, segid: Segid) {
        if let Some(&owner_slot) = self.id_to_slot.get(&owner) {
            if let Some(g) = self.grants.get_mut(&(owner_slot, segid)) {
                *g = g.saturating_sub(1);
                if *g == 0 {
                    self.grants.remove(&(owner_slot, segid));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Process management and data access (clock-based)
    // ------------------------------------------------------------------

    /// Spawn a process with `mem_bytes` of private memory in an enclave.
    pub fn spawn_process(
        &mut self,
        e: EnclaveRef,
        mem_bytes: u64,
    ) -> Result<ProcessRef, XememError> {
        self.process_faults(self.clock.now());
        self.clocked(SpanKind::Spawn, Ctx::enclave(e.0), |sys, at| {
            let slot = live_slot(sys.slots.get_mut(e.0), e)?;
            let spawned = slot.kind.kernel_mut().spawn(mem_bytes)?;
            let (pid, cost) = (spawned.value, spawned.cost);
            let ctx = Ctx::proc(e.0, pid.0);
            let end = sys.tracer.charge(SpanKind::KernelSpawn, at, cost, ctx);
            Ok((ProcessRef { enclave: e, pid }, end))
        })
    }

    /// Destroy a process gracefully: detach its live attachments
    /// (dropping any loan refcounts they held), release its permits
    /// (dropping the exporter-side grant refcounts), withdraw its
    /// exported segments — [`Self::remove_at`] drives the revocation
    /// protocol, so remote attachments are reaped and subsequent access
    /// through them fails with `SourceGone` — and free its memory.
    pub fn exit_process(&mut self, p: ProcessRef) -> Result<(), XememError> {
        self.process_faults(self.clock.now());
        let slot_idx = p.enclave.0;
        live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        // Tear down attachments (local unmap; drops loan refcounts).
        // Sorted for deterministic teardown order (map iteration is not).
        let mut attached: Vec<u64> = self.slots[slot_idx]
            .attachments
            .iter()
            .filter(|((pid, _), _)| *pid == p.pid)
            .map(|((_, va), _)| *va)
            .collect();
        attached.sort_unstable();
        for va in attached {
            self.xpmem_detach(p, VirtAddr(va))?;
        }
        // Release permits, dropping the exporter-side grant refcounts
        // they pinned (left dangling before the teardown protocol
        // existed).
        let mut permits: Vec<Apid> = self.slots[slot_idx]
            .apids
            .iter()
            .filter(|(_, rec)| rec.pid == p.pid)
            .map(|(apid, _)| *apid)
            .collect();
        permits.sort_unstable();
        for apid in permits {
            self.xpmem_release(p, apid)?;
        }
        // Withdraw exported segments; remove_at revokes and reaps any
        // remote attachments before the kernel frees the frames below.
        let mut segids: Vec<Segid> = self.slots[slot_idx]
            .segs
            .iter()
            .filter(|(_, rec)| rec.pid == p.pid)
            .map(|(segid, _)| *segid)
            .collect();
        segids.sort_unstable();
        for segid in segids {
            self.xpmem_remove(p, segid)?;
        }
        // Finally, the kernel reclaims the process.
        self.clocked(SpanKind::Exit, Ctx::proc(slot_idx, p.pid.0), |sys, at| {
            sys.kernel_exit(p, at).map(|end| ((), end))
        })
    }

    /// Allocate a page-aligned buffer in a process (the region an
    /// application will export).
    pub fn alloc_buffer(&mut self, p: ProcessRef, len: u64) -> Result<VirtAddr, XememError> {
        self.process_faults(self.clock.now());
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        self.clocked(SpanKind::AllocBuffer, ctx, |sys, at| {
            let slot = live_slot(sys.slots.get_mut(p.enclave.0), p.enclave)?;
            slot_alloc_buffer(slot, &sys.tracer, p, len, at)
        })
    }

    /// Bring a buffer fully resident without charging virtual time —
    /// the state it would be in after the application filled it during a
    /// compute phase the workload models already account for. Call
    /// before exporting regions whose contents are notionally written by
    /// the application (see `MappingKernel::populate`).
    pub fn prepare_buffer(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        len: u64,
    ) -> Result<(), XememError> {
        let slot = self
            .slots
            .get_mut(p.enclave.0)
            .ok_or(XememError::BadEnclave(p.enclave))?;
        slot.kind.kernel_mut().populate(p.pid, va, len)?;
        Ok(())
    }

    /// Write process memory. Writes overlapping a revoked attachment
    /// fail with `SourceGone`.
    pub fn write(&mut self, p: ProcessRef, va: VirtAddr, data: &[u8]) -> Result<(), XememError> {
        self.access(p, va, Access::Write(data))
    }

    /// Read process memory. Reads overlapping a revoked attachment fail
    /// with `SourceGone` — the teardown protocol never leaves stale
    /// bytes readable.
    pub fn read(&mut self, p: ProcessRef, va: VirtAddr, out: &mut [u8]) -> Result<(), XememError> {
        self.access(p, va, Access::Read(out))
    }

    /// Clock-based read or write: the slot-local body plus the stream
    /// surcharge of off-DRAM tiers, which only the whole system can see.
    fn access(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        access: Access<'_>,
    ) -> Result<(), XememError> {
        self.process_faults(self.clock.now());
        let (len, write) = (access.len(), matches!(access, Access::Write(_)));
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        self.clocked(access.kinds().0, ctx, |sys, at| {
            let slot = live_slot(sys.slots.get_mut(p.enclave.0), p.enclave)?;
            let end = slot_access(slot, &sys.tracer, p, va, access, at)?;
            let extra = sys.tier_access(p.enclave.0, p.pid, va, len, at, write);
            Ok(((), sys.tracer.charge(SpanKind::TierStream, end, extra, ctx)))
        })
    }

    // ------------------------------------------------------------------
    // Memory tiers and hot/cold migration
    // ------------------------------------------------------------------

    /// The tier the given policy chunk of a segment currently lives in
    /// (test/bench visibility into the tier directory).
    pub fn tier_of_chunk(&self, e: EnclaveRef, segid: Segid, chunk: u64) -> Option<MemTier> {
        self.tier_dir
            .get(&(e.0, segid))
            .and_then(|d| d.chunks.get(chunk as usize))
            .map(|c| c.tier)
    }

    /// Free frames the enclave's allocator holds on `tier`, or `None`
    /// when the tier was never reserved for it.
    pub fn tier_free_frames(&self, e: EnclaveRef, tier: MemTier) -> Option<u64> {
        let slot = self.slots.get(e.0)?;
        match &slot.kind {
            EnclaveKind::Native(k) => k.tier_free_frames(tier),
            EnclaveKind::Vm(_) => None,
        }
    }

    /// Per-tier page classification of the window `[offset, offset+len)`
    /// of a segment, read from the tier directory at chunk granularity.
    /// Unknown segments classify as all-local (zero surcharge).
    fn tier_window_pages(
        &self,
        owner_slot: usize,
        segid: Segid,
        offset: u64,
        len: u64,
    ) -> [u64; MemTier::COUNT] {
        let mut out = [0u64; MemTier::COUNT];
        let Some(dir) = self.tier_dir.get(&(owner_slot, segid)) else {
            out[MemTier::LocalDram.index()] = len.div_ceil(PAGE_SIZE);
            return out;
        };
        let chunk_bytes = self.tier_policy.chunk_pages * PAGE_SIZE;
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let ci = (cur / chunk_bytes) as usize;
            let span = end.min((cur / chunk_bytes + 1) * chunk_bytes) - cur;
            let tier = dir.chunks.get(ci).map(|c| c.tier).unwrap_or(dir.home);
            out[tier.index()] += span.div_ceil(PAGE_SIZE);
            cur += span;
        }
        out
    }

    /// Account one data access against the tier directory and return the
    /// stream surcharge over the flat-DRAM charge the kernel already
    /// made. Bumps the access-frequency counter of every chunk the range
    /// touches (rolling the segment's counting window first) — the
    /// signal the hot/cold policy runs on. Zero for local-DRAM chunks,
    /// so pre-tier runs are reproduced byte for byte.
    fn tier_access(
        &mut self,
        slot_idx: usize,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        at: SimTime,
        write: bool,
    ) -> SimDuration {
        if len == 0 {
            return SimDuration::ZERO;
        }
        let target = {
            let slot = &self.slots[slot_idx];
            slot_find_live_attachment(slot, pid, va, len)
                .and_then(|(base, rec)| {
                    self.id_to_slot
                        .get(&rec.owner)
                        .map(|&os| (os, rec.segid, rec.offset + (va.0 - base)))
                })
                .or_else(|| {
                    slot.segs
                        .iter()
                        .filter(|(_, s)| {
                            s.pid == pid && va.0 >= s.va.0 && va.0 + len <= s.va.0 + s.len
                        })
                        .min_by_key(|(sid, _)| **sid)
                        .map(|(sid, s)| (slot_idx, *sid, va.0 - s.va.0))
                })
        };
        let Some((owner_slot, segid, off)) = target else {
            return SimDuration::ZERO;
        };
        let policy = self.tier_policy;
        let chunk_bytes = policy.chunk_pages * PAGE_SIZE;
        let Some(dir) = self.tier_dir.get_mut(&(owner_slot, segid)) else {
            return SimDuration::ZERO;
        };
        roll_windows(dir, &policy, at);
        let mut extra = SimDuration::ZERO;
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let ci = (cur / chunk_bytes) as usize;
            let span = end.min((cur / chunk_bytes + 1) * chunk_bytes) - cur;
            if let Some(c) = dir.chunks.get_mut(ci) {
                c.hits = c.hits.saturating_add(1);
                if c.tier != MemTier::LocalDram {
                    let tiered = if write {
                        self.cost.tier_stream_write(c.tier, span)
                    } else {
                        self.cost.tier_stream_read(c.tier, span)
                    };
                    extra += tiered - self.cost.dram_stream(span);
                }
            }
            cur += span;
        }
        extra
    }

    /// Migrate a segment (`chunk: None`) or one policy chunk of it to
    /// `dst`, batched over extents, on an explicit timeline. Returns the
    /// resident pages moved and the completion time. The owner's kernel
    /// rewrites its tables in O(extents) host time; every live
    /// attachment overlapping the span is re-served and re-pointed, with
    /// a causal [`EdgeKind::MigrateRemap`] edge per attacher.
    pub fn migrate_extent_at(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        chunk: Option<u64>,
        dst: MemTier,
        at: SimTime,
    ) -> Result<(u64, SimTime), XememError> {
        let ctx = Ctx::seg(p.enclave.0, p.pid.0, segid.0);
        let kind = SpanKind::MigrateExtent;
        self.framed(kind, ctx, Timeline::Detached, at, |sys, at| {
            sys.migrate_extent_inner(p, segid, chunk, dst, at)
        })
    }

    /// Clock-based [`Self::migrate_extent_at`] over the whole segment —
    /// the static-placement lever of the tier benches.
    pub fn migrate_extent(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        dst: MemTier,
    ) -> Result<u64, XememError> {
        let ctx = Ctx::seg(p.enclave.0, p.pid.0, segid.0);
        self.clocked(SpanKind::MigrateExtent, ctx, |sys, at| {
            sys.migrate_extent_inner(p, segid, None, dst, at)
        })
    }

    fn migrate_extent_inner(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        chunk: Option<u64>,
        dst: MemTier,
        at: SimTime,
    ) -> Result<(u64, SimTime), XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        let slot = live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        if slot.kind.is_vm() {
            return Err(XememError::Kernel(KernelError::Unsupported(
                "tier migration inside a VM guest",
            )));
        }
        let seg = slot
            .segs
            .get(&segid)
            .ok_or(XememError::UnknownSegid(segid))?
            .clone();
        if seg.pid != p.pid {
            return Err(XememError::PermissionDenied);
        }
        if let Some(inj) = &self.injector {
            if !inj.tier_available(slot_idx, dst, at) {
                return Err(XememError::TierUnavailable {
                    slot: slot_idx,
                    tier: dst,
                });
            }
        }
        let dir_chunks = self
            .tier_dir
            .get(&(slot_idx, segid))
            .map(|d| d.chunks.len())
            .unwrap_or(0);
        let chunk_bytes = self.tier_policy.chunk_pages * PAGE_SIZE;
        let (span_off, span_len, chunk_range) = match chunk {
            Some(i) => {
                if i as usize >= dir_chunks {
                    return Err(XememError::BadWindow {
                        offset: i * chunk_bytes,
                        len: chunk_bytes,
                        seg_len: seg.len,
                    });
                }
                let off = i * chunk_bytes;
                (
                    off,
                    (seg.len - off).min(chunk_bytes),
                    i as usize..i as usize + 1,
                )
            }
            None => (0, seg.len, 0..dir_chunks),
        };
        // Attachments inside VM guests cannot be re-pointed (the VMM owns
        // the GPA map); refuse before touching any state.
        let sites: Vec<AttachSite> = self
            .attachers
            .get(&(slot_idx, segid))
            .cloned()
            .unwrap_or_default();
        for site in &sites {
            let live = self.slots[site.slot]
                .attachments
                .get(&(site.pid, site.va))
                .is_some_and(|r| r.state == AttachState::Live);
            if live && self.slots[site.slot].kind.is_vm() {
                return Err(XememError::Kernel(KernelError::Unsupported(
                    "migrating a segment attached from a VM",
                )));
            }
        }
        // 1. The owner's kernel relocates the resident subset, batched
        //    over extents.
        let out = self.slots[slot_idx].kind.kernel_mut().migrate_region(
            seg.pid,
            VirtAddr(seg.va.0 + span_off),
            span_len,
            dst,
        )?;
        let octx = Ctx::seg(slot_idx, seg.pid.0, segid.0);
        let mut bytes_by_tier = [0u64; MemTier::COUNT];
        for t in MemTier::ALL {
            bytes_by_tier[t.index()] = out.value.moved_by_tier[t.index()] * PAGE_SIZE;
        }
        let copy = self.cost.migrate_copy(&bytes_by_tier, dst);
        let t = self.tracer.charge(SpanKind::MigrateCopy, at, copy, octx);
        let mut t = self
            .tracer
            .charge(SpanKind::MigrateRemap, t, out.cost, octx);
        // 2. Re-point every live attachment overlapping the span: the
        //    owner re-serves the attached window, the attaching kernel
        //    swaps the backing frames in place.
        for site in &sites {
            let Some(rec) = self.slots[site.slot]
                .attachments
                .get(&(site.pid, site.va))
                .copied()
            else {
                continue;
            };
            if rec.state != AttachState::Live
                || rec.offset + rec.len <= span_off
                || rec.offset >= span_off + span_len
            {
                continue;
            }
            let (list, serve) =
                self.serve_export(slot_idx, seg.pid, VirtAddr(seg.va.0 + rec.offset), rec.len)?;
            t = self.tracer.charge(SpanKind::ServeWalk, t, serve, octx);
            let actx = Ctx::seg(site.slot, site.pid.0, segid.0);
            let remapped = self.slots[site.slot].kind.kernel_mut().remap_attached(
                site.pid,
                VirtAddr(site.va),
                &list,
            )?;
            let end = self
                .tracer
                .charge(SpanKind::MigrateRemap, t, remapped.cost, actx);
            self.tracer.edge(EdgeKind::MigrateRemap, t, end, octx, actx);
            t = end;
        }
        // 3. Directory + metrics. A whole-segment move re-homes the
        //    segment: the policy's cold demotions now target the new
        //    parking tier, not the original export tier.
        if let Some(dir) = self.tier_dir.get_mut(&(slot_idx, segid)) {
            if chunk.is_none() {
                dir.home = dst;
            }
            for c in &mut dir.chunks[chunk_range] {
                c.tier = dst;
                c.hits = 0;
                c.hot = 0;
                c.cold = 0;
            }
        }
        let pages = out.value.pages;
        self.tracer.count(Counter::TierMigrations, 1);
        self.tracer.count(Counter::TierPagesMigrated, pages);
        self.tracer
            .count(Counter::TierBytesCopied, pages * PAGE_SIZE);
        self.tracer
            .observe(Hist::MigrateNs, t.duration_since(at).as_nanos());
        Ok((pages, t))
    }

    /// Run the hot/cold policy over every segment `p` exports on the
    /// clock: close counting windows up to now, then migrate each chunk
    /// whose hot (cold) streak reached the hysteresis threshold to the
    /// fast (home) tier. Deterministic: the directory iterates in
    /// `(slot, segid)` order and every decision is a pure function of
    /// virtual-time access counts. Returns the executed moves.
    pub fn tier_policy_tick(&mut self, p: ProcessRef) -> Result<Vec<TierMove>, XememError> {
        // A disarmed policy makes the tick a true no-op — no span, no
        // clock motion — so hysteresis-off runs are observationally
        // identical to runs that never tick (the tier proptest's
        // contract).
        if !self.tier_policy.armed() {
            return Ok(Vec::new());
        }
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        self.clocked(SpanKind::MigrateExtent, ctx, |sys, at| {
            sys.tier_tick_inner(p, at)
        })
    }

    fn tier_tick_inner(
        &mut self,
        p: ProcessRef,
        at: SimTime,
    ) -> Result<(Vec<TierMove>, SimTime), XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        // The caller returns early on a disarmed policy.
        let policy = self.tier_policy;
        let mut moves = Vec::new();
        let mut t = at;
        let segids: Vec<Segid> = self
            .tier_dir
            .range((slot_idx, Segid(0))..=(slot_idx, Segid(u64::MAX)))
            .map(|((_, s), _)| *s)
            .collect();
        for segid in segids {
            let owned = self.slots[slot_idx]
                .segs
                .get(&segid)
                .is_some_and(|s| s.pid == p.pid);
            if !owned {
                continue;
            }
            let dir = self
                .tier_dir
                .get_mut(&(slot_idx, segid))
                .expect("listed above");
            roll_windows(dir, &policy, t);
            let home = dir.home;
            let wants: Vec<(u64, MemTier, MemTier)> = dir
                .chunks
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    if c.hot >= policy.hysteresis && c.tier != policy.fast_tier {
                        Some((i as u64, c.tier, policy.fast_tier))
                    } else if c.cold >= policy.hysteresis && c.tier != home {
                        Some((i as u64, c.tier, home))
                    } else {
                        None
                    }
                })
                .collect();
            for (i, from, dst) in wants {
                match self.migrate_extent_inner(p, segid, Some(i), dst, t) {
                    Ok((pages, end)) => {
                        moves.push(TierMove {
                            segid,
                            chunk: i,
                            from,
                            to: dst,
                            pages,
                        });
                        t = end;
                    }
                    // An injected tier outage or a full destination
                    // tier defers the move; the streak holds and the
                    // next tick retries.
                    Err(
                        XememError::TierUnavailable { .. }
                        | XememError::Kernel(KernelError::Mem(MemError::OutOfFrames { .. })),
                    ) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((moves, t))
    }

    // ------------------------------------------------------------------
    // Routing internals
    // ------------------------------------------------------------------

    fn link_between(&self, a: usize, b: usize) -> Option<(&Link, Direction)> {
        if self.slots[a].parent == Some(b) {
            Some((self.slots[a].parent_link.as_ref()?, Direction::Up))
        } else if self.slots[b].parent == Some(a) {
            Some((self.slots[b].parent_link.as_ref()?, Direction::Down))
        } else {
            None
        }
    }

    /// The §3.2 forwarding algorithm: from `from`, follow per-enclave
    /// route maps toward `dest_id`, falling back toward the name server.
    fn route_path(&self, from: usize, dest_id: EnclaveId) -> Result<Vec<usize>, XememError> {
        let mut path = vec![from];
        let mut cur = from;
        let mut hops = 0;
        while self.slots[cur].id != Some(dest_id) {
            let next = match self.slots[cur].routes.get(&dest_id) {
                Some(&n) => n,
                None => self.slots[cur].ns_via.ok_or_else(|| {
                    XememError::Topology(format!(
                        "enclave {:?} has no route to {dest_id} and hosts the name server",
                        self.slots[cur].name
                    ))
                })?,
            };
            if !self.slots[next].alive {
                // Forwarding through (or to) a crashed enclave: the
                // message has nowhere to go.
                return Err(XememError::EnclaveDead(EnclaveRef(next)));
            }
            path.push(next);
            cur = next;
            hops += 1;
            if hops > 2 * self.slots.len() {
                return Err(XememError::Topology("routing loop".into()));
            }
        }
        Ok(path)
    }

    /// Charge the channel and forwarding costs of sending `kind` along
    /// `path`, starting at `at`, tracing each hop as a `SendRecv` edge
    /// (see [`crate::protocol`]). Name-server processing is charged at
    /// the root name-server slot; shard-routed requests use
    /// [`Self::charge_hops_proc`] to charge it at their shard leader
    /// instead.
    fn charge_hops(
        &mut self,
        path: &[usize],
        kind: MessageKind,
        segid: Option<Segid>,
        at: SimTime,
    ) -> SimTime {
        self.charge_hops_proc(path, kind, segid, at, self.ns_slot)
    }

    /// [`Self::charge_hops`] with an explicit serving slot: hops landing
    /// at `proc_slot` charge the name-server processing cost for kinds
    /// that require it.
    fn charge_hops_proc(
        &mut self,
        path: &[usize],
        kind: MessageKind,
        segid: Option<Segid>,
        mut at: SimTime,
        proc_slot: usize,
    ) -> SimTime {
        let bytes = kind.wire_bytes();
        let seg = segid.map(|s| s.0).unwrap_or(0);
        for w in 0..path.len().saturating_sub(1) {
            let (a, b) = (path[w], path[w + 1]);
            let hop_start = at;
            // Injected message loss: the sender times out and
            // retransmits; each retry re-consults the loss window at the
            // advanced timestamp.
            if let Some(injector) = self.injector.as_mut() {
                let timeout = SimDuration::from_nanos(self.cost.retransmit_timeout_ns);
                let (mut dropped, mut lost) = (0u32, SimDuration::ZERO);
                while dropped < MAX_RETRANSMITS && injector.should_drop(at + lost) {
                    dropped += 1;
                    lost += timeout;
                }
                at = self
                    .tracer
                    .charge(SpanKind::Retransmit, at, lost, Ctx::seg(a, 0, seg));
                self.tracer.count(Counter::Retransmits, u64::from(dropped));
            }
            let (link, dir) = self.link_between(a, b).expect("path hops are tree edges");
            at = self.send_link(link, at, bytes, dir, Ctx::seg(b, 0, seg));
            // Injected duplication: the receiver pays for a second copy.
            if self
                .injector
                .as_mut()
                .is_some_and(|i| i.should_duplicate(at))
            {
                self.tracer.count(Counter::DupDeliveries, 1);
                let (link, dir) = self.link_between(a, b).expect("path hops are tree edges");
                at = self.send_link(link, at, bytes, dir, Ctx::seg(b, 0, seg));
            }
            // The hop's one record: the message leaves slot `a` when the
            // sender first attempts the hop and is received at slot `b`
            // once every retransmit, transfer and duplicate has been
            // paid for.
            self.tracer.send_recv(
                hop_start,
                at,
                Ctx::seg(a, 0, seg),
                Ctx::seg(b, 0, seg),
                kind.code(),
                bytes,
            );
            // Forwarding decision at each intermediate receiver.
            if w + 2 < path.len() {
                let hop = SimDuration::from_nanos(self.cost.route_hop_ns);
                at = self
                    .tracer
                    .charge(SpanKind::RouteForward, at, hop, Ctx::seg(b, 0, seg));
            }
            // Name-server processing when the request transits the
            // serving slot.
            if b == proc_slot && w + 2 <= path.len() && requires_ns_processing(kind) {
                let ns = SimDuration::from_nanos(self.cost.name_server_ns);
                at = self
                    .tracer
                    .charge(SpanKind::NsProcess, at, ns, Ctx::seg(b, 0, seg));
            }
        }
        at
    }

    /// Send one message over a link, attributing the charge to its
    /// mechanism: IPI queue wait + transfer on host links, hypercall or
    /// guest-IRQ notification + PCI window copy on VM links. The two
    /// leaves partition `Link::send`'s charge exactly, so the returned
    /// end time equals it.
    fn send_link(&self, link: &Link, at: SimTime, bytes: u64, dir: Direction, ctx: Ctx) -> SimTime {
        let [(head, d0), (tail, d1)] = match link.send_traced(at, bytes, dir).1 {
            LinkCharge::Ipi { wait, xfer } => {
                [(SpanKind::IpiWait, wait), (SpanKind::IpiXfer, xfer)]
            }
            LinkCharge::Pci { notify, copy, dir } => {
                let kind = match dir {
                    Direction::Up => SpanKind::Hypercall,
                    Direction::Down => SpanKind::GuestIrq,
                };
                [(kind, notify), (SpanKind::PciCopy, copy)]
            }
        };
        let t = self.tracer.charge(head, at, d0, ctx);
        self.tracer.charge(tail, t, d1, ctx)
    }

    /// Path from a slot to another slot through the §3.2 forwarding
    /// maps (the name server's slot included: every route toward it
    /// follows `ns_via`). Fails with `EnclaveDead` when a hop on the way
    /// crashed.
    fn path_to(&self, from: usize, to: usize) -> Result<Vec<usize>, XememError> {
        let dest = self.slots[to]
            .id
            .ok_or(XememError::BadEnclave(EnclaveRef(to)))?;
        self.route_path(from, dest)
    }

    // ------------------------------------------------------------------
    // Timeline (`*_at`) protocol operations
    // ------------------------------------------------------------------

    /// Export a region (`xpmem_make`): allocate a globally unique segid
    /// from the name server and register the region locally. Fig. 3
    /// steps 2–3.
    pub fn make_at(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        len: u64,
        name: Option<&str>,
        at: SimTime,
    ) -> Result<(Segid, SimTime), XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        let slot = live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let my_id = slot.id.ok_or(XememError::BadEnclave(p.enclave))?;
        // Registration mutates the name service — no lease fallback;
        // outages and elections are ridden out with exponential backoff.
        let shard = match name {
            Some(n) => self.name_service.shard_of_name(n),
            None => self.name_service.shard_of_owner(my_id),
        };
        let (leader, at) = self.reach_leader(slot_idx, shard, at)?;
        let (segid, t) = if slot_idx == leader {
            // Local syscall into the co-resident shard leader.
            let segid = self.name_service.alloc_segid(my_id, name, at)?;
            let ns = SimDuration::from_nanos(self.cost.name_server_ns);
            let ctx = Ctx::seg(leader, 0, segid.0);
            (segid, self.tracer.charge(SpanKind::NsProcess, at, ns, ctx))
        } else {
            let path = self.path_to(slot_idx, leader)?;
            let t_req = self.charge_hops_proc(&path, MessageKind::AllocSegid, None, at, leader);
            let segid = self.name_service.alloc_segid(my_id, name, t_req)?;
            let back: Vec<usize> = path.iter().rev().copied().collect();
            let t_rep =
                self.charge_hops_proc(&back, MessageKind::SegidReply, Some(segid), t_req, leader);
            (segid, t_rep)
        };
        // Local registration bookkeeping.
        let bk = SimDuration::from_nanos(300);
        let ctx = Ctx::seg(slot_idx, p.pid.0, segid.0);
        let t = self.tracer.charge(SpanKind::Bookkeeping, t, bk, ctx);
        self.slots[slot_idx].segs.insert(
            segid,
            SegRecord {
                pid: p.pid,
                va,
                len,
            },
        );
        // Tier directory: every export starts on socket DRAM, where
        // partitions are carved ([`SystemBuilder::tier_reserve`] adds
        // non-home capacity on top), with one hot/cold record per policy
        // chunk.
        let home = MemTier::LocalDram;
        let chunk_bytes = self.tier_policy.chunk_pages * PAGE_SIZE;
        let chunks = len.div_ceil(chunk_bytes).max(1) as usize;
        self.tier_dir.insert(
            (slot_idx, segid),
            TierSeg {
                home,
                chunks: vec![ChunkState::new(home); chunks],
                window_start: t,
            },
        );
        Ok((segid, t))
    }

    /// Remove an exported region (`xpmem_remove`). Drives the revocation
    /// protocol: every remote attachment to the segment is reaped (its
    /// enclave is notified and unmaps), so subsequent access through
    /// those attachments fails with `SourceGone` rather than reading
    /// frames the exporter may now recycle.
    pub fn remove_at(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        let slot = live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let my_id = slot.id.ok_or(XememError::BadEnclave(p.enclave))?;
        let rec = self.slots[slot_idx]
            .segs
            .get(&segid)
            .ok_or(XememError::UnknownSegid(segid))?;
        if rec.pid != p.pid {
            return Err(XememError::PermissionDenied);
        }
        // Unregistration mutates the name service — backoff, no lease
        // path.
        let shard = self.name_service.shard_of_segid(segid)?;
        let (leader, at) = self.reach_leader(slot_idx, shard, at)?;
        // A failover may have dropped the registration as unreplicated;
        // the local export teardown still has to run, so tolerate the
        // already-gone case instead of failing the remove.
        let distributed = self.name_service.is_distributed();
        let tolerate_lost = |e: XememError| match e {
            XememError::UnknownSegid(_) if distributed => Ok(()),
            other => Err(other),
        };
        let t = if slot_idx == leader {
            if let Err(e) = self.name_service.remove_segid(segid, my_id, at) {
                tolerate_lost(e)?;
            }
            let ns = SimDuration::from_nanos(self.cost.name_server_ns);
            let ctx = Ctx::seg(leader, 0, segid.0);
            self.tracer.charge(SpanKind::NsProcess, at, ns, ctx)
        } else {
            let path = self.path_to(slot_idx, leader)?;
            let t = self.charge_hops_proc(&path, MessageKind::RemoveSegid, Some(segid), at, leader);
            if let Err(e) = self.name_service.remove_segid(segid, my_id, t) {
                tolerate_lost(e)?;
            }
            t
        };
        // Withdrawal precedes the remove's completion: every holder of a
        // live lease on the segid purges its cache, so no lookup can
        // serve the dead registration afterwards, and remote reapers
        // unmap. The exporter is still alive and keeps its frames, so
        // nothing is quarantined.
        Ok(self.withdraw_export(slot_idx, segid, None, t))
    }

    /// Discover a segid by well-known name (`xpmem_search` extension;
    /// paper §3.1 discoverability).
    pub fn search_at(
        &mut self,
        p: ProcessRef,
        name: &str,
        at: SimTime,
    ) -> Result<(Segid, SimTime), XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let shard = self.name_service.shard_of_name(name);
        if self.name_service.leader_slot(shard) != Some(slot_idx) {
            if let Some(lease) = self.slots[slot_idx].name_leases.get(name).copied() {
                let ctx = Ctx::seg(slot_idx, p.pid.0, lease.value.0);
                if let Some(served) = self.serve_lease(lease, ctx, at) {
                    return Ok(served);
                }
                self.slots[slot_idx].name_leases.remove(name);
            }
        }
        let lookup = |ns: &NameService| ns.search(name).map(|segid| (segid, segid));
        let (segid, t, lease) = self.ask_leader(slot_idx, shard, None, lookup, at)?;
        if let Some(lease) = lease {
            self.slots[slot_idx]
                .name_leases
                .insert(name.to_string(), lease);
        }
        Ok((segid, t))
    }

    /// Serve a lookup from a cached lease if it is still live and
    /// epoch-current — also during a shard outage, which degrades
    /// gracefully with a bounded staleness window; a failover fences the
    /// lease through the epoch even before it expires. Charges the
    /// expiry + epoch check and the bookkeeping and counts the serve
    /// against the granting shard. `None` when the lease is stale: that
    /// counts as an expiration, and the caller drops it and revalidates
    /// with the shard leader.
    fn serve_lease<T: Copy>(
        &mut self,
        lease: Lease<T>,
        ctx: Ctx,
        at: SimTime,
    ) -> Option<(T, SimTime)> {
        if lease.expires <= at || lease.epoch != self.name_service.epoch(lease.shard) {
            self.tracer
                .count_shard(lease.shard, ShardCounter::LeaseExpirations, 1);
            return None;
        }
        let check = SimDuration::from_nanos(self.cost.ns_lease_check_ns);
        let bk = SimDuration::from_nanos(300);
        let t = self.tracer.charge(SpanKind::NsLeaseCheck, at, check, ctx);
        let t = self.tracer.charge(SpanKind::Bookkeeping, t, bk, ctx);
        self.tracer.count(Counter::NsLeaseServes, 1);
        self.tracer
            .count_shard(lease.shard, ShardCounter::LeaseServes, 1);
        self.tracer
            .count_shard(lease.shard, ShardCounter::Lookups, 1);
        self.tracer
            .observe_shard_lookup(lease.shard, t.duration_since(at).as_nanos());
        Some((lease.value, t))
    }

    /// Resolve a lookup at the shard leader ([`Self::reach_leader`]).
    /// `lookup` reads the leader's maps and returns the answer with the
    /// segid it concerns. A co-resident leader answers from its
    /// authoritative maps with no lease. Otherwise the request (`key`
    /// names the segid when the caller knows it) routes to the leader,
    /// which answers, grants the caller a lease on the reply — renewal
    /// is the same path, since an expired lease re-routes here — and the
    /// reply routes back. The request hops are charged before the lookup
    /// can fail, so a failed lookup still leaves its `SendRecv` edges.
    /// Counts the lookup and its latency against the shard and returns
    /// the answer, the completion time and the lease to cache.
    fn ask_leader<T: Copy>(
        &mut self,
        slot_idx: usize,
        shard: usize,
        key: Option<Segid>,
        lookup: impl FnOnce(&NameService) -> Result<(T, Segid), XememError>,
        at: SimTime,
    ) -> Result<(T, SimTime, Option<Lease<T>>), XememError> {
        let (leader, at) = self.reach_leader(slot_idx, shard, at)?;
        let (value, t, lease) = if slot_idx == leader {
            let (value, segid) = lookup(&self.name_service)?;
            let ns = SimDuration::from_nanos(self.cost.name_server_ns);
            let ctx = Ctx::seg(leader, 0, segid.0);
            let t = self.tracer.charge(SpanKind::NsProcess, at, ns, ctx);
            (value, t, None)
        } else {
            let path = self.path_to(slot_idx, leader)?;
            let t = self.charge_hops_proc(&path, MessageKind::SearchSegid, key, at, leader);
            let (value, segid) = lookup(&self.name_service)?;
            let renew = SimDuration::from_nanos(self.cost.ns_lease_renew_ns);
            let ctx = Ctx::seg(leader, 0, segid.0);
            let t = self.tracer.charge(SpanKind::NsLeaseRenew, t, renew, ctx);
            let expires = t + SimDuration::from_nanos(self.cost.ns_lease_ns);
            self.name_service.grant_lease(segid, slot_idx, expires);
            self.tracer.count_shard(shard, ShardCounter::LeaseGrants, 1);
            let lease = Lease {
                value,
                expires,
                epoch: self.name_service.epoch(shard),
                shard,
            };
            let back: Vec<usize> = path.iter().rev().copied().collect();
            let t = self.charge_hops_proc(&back, MessageKind::SearchReply, Some(segid), t, leader);
            (value, t, Some(lease))
        };
        self.tracer.count_shard(shard, ShardCounter::Lookups, 1);
        self.tracer
            .observe_shard_lookup(shard, t.duration_since(at).as_nanos());
        Ok((value, t, lease))
    }

    /// Request access to a segment (`xpmem_get`): validates the segid
    /// with the name server and returns a permission grant.
    pub fn get_at(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        at: SimTime,
    ) -> Result<(Apid, SimTime), XememError> {
        self.get_mode_at(p, segid, AccessMode::ReadWrite, at)
    }

    /// [`Self::get_at`] with an explicit access mode (XPMEM permits may
    /// be read-only).
    pub fn get_mode_at(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        mode: AccessMode,
        at: SimTime,
    ) -> Result<(Apid, SimTime), XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let shard = self.name_service.shard_of_segid(segid)?;
        let ctx = Ctx::seg(slot_idx, p.pid.0, segid.0);
        let cached = (self.name_service.leader_slot(shard) != Some(slot_idx))
            .then(|| self.slots[slot_idx].owner_leases.get(&segid).copied())
            .flatten();
        let (owner, t) = if self.slots[slot_idx].segs.contains_key(&segid) {
            // Locally owned: no messages needed.
            let my_id = self.slots[slot_idx].id.expect("registered");
            let bk = SimDuration::from_nanos(300);
            let t = self.tracer.charge(SpanKind::Bookkeeping, at, bk, ctx);
            (my_id, t)
        } else if let Some(served) = cached.and_then(|lease| self.serve_lease(lease, ctx, at)) {
            // The owner lease answers locally; attach still re-validates.
            served
        } else {
            if cached.is_some() {
                self.slots[slot_idx].owner_leases.remove(&segid);
            }
            let lookup = |ns: &NameService| ns.owner_of(segid).map(|owner| (owner, segid));
            let (owner, t, lease) = self.ask_leader(slot_idx, shard, Some(segid), lookup, at)?;
            if let Some(lease) = lease {
                self.slots[slot_idx].owner_leases.insert(segid, lease);
            }
            (owner, t)
        };
        self.next_apid += 1;
        let apid = Apid(self.next_apid);
        self.slots[slot_idx].apids.insert(
            apid,
            ApidRecord {
                segid,
                pid: p.pid,
                owner,
                mode,
            },
        );
        // Exporter-side grant refcount (dropped by release / attacher
        // exit — the GC that used to leak).
        if let Some(&owner_slot) = self.id_to_slot.get(&owner) {
            *self.grants.entry((owner_slot, segid)).or_insert(0) += 1;
        }
        Ok((apid, t))
    }

    /// Release a permission grant (`xpmem_release`), dropping the
    /// exporter-side grant refcount. A second release of the same permit
    /// fails cleanly with `AlreadyReleased`.
    pub fn release_at(
        &mut self,
        p: ProcessRef,
        apid: Apid,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        self.process_faults(at);
        let slot = live_slot(self.slots.get_mut(p.enclave.0), p.enclave)?;
        let Some(rec) = slot.apids.get(&apid) else {
            return Err(if slot.released.contains(&apid) {
                XememError::AlreadyReleased(apid)
            } else {
                XememError::UnknownApid(apid)
            });
        };
        if rec.pid != p.pid {
            return Err(XememError::PermissionDenied);
        }
        let (owner, segid) = (rec.owner, rec.segid);
        slot.apids.remove(&apid);
        slot.released.insert(apid);
        self.drop_grant(owner, segid);
        let bk = SimDuration::from_nanos(200);
        let ctx = Ctx::seg(p.enclave.0, p.pid.0, segid.0);
        Ok(self.tracer.charge(SpanKind::Bookkeeping, at, bk, ctx))
    }

    /// Attach to (a window of) a segment (`xpmem_attach`) — the heavy
    /// path of Fig. 3: route the request to the owner, generate the PFN
    /// list there, route it back, map it locally.
    pub fn attach_at(
        &mut self,
        p: ProcessRef,
        apid: Apid,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<AttachOutcome, XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        let slot = live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let rec = *slot.apids.get(&apid).ok_or(XememError::UnknownApid(apid))?;
        if rec.pid != p.pid {
            return Err(XememError::PermissionDenied);
        }
        let owner_slot = *self
            .id_to_slot
            .get(&rec.owner)
            .ok_or(XememError::UnknownSegid(rec.segid))?;
        if !self.slots[owner_slot].alive {
            return Err(XememError::EnclaveDead(EnclaveRef(owner_slot)));
        }

        // Resolve the window against the owner's registration.
        let seg = self.slots[owner_slot]
            .segs
            .get(&rec.segid)
            .ok_or(XememError::UnknownSegid(rec.segid))?
            .clone();
        if !offset.is_multiple_of(PAGE_SIZE) || len == 0 || offset + len > seg.len {
            return Err(XememError::BadWindow {
                offset,
                len,
                seg_len: seg.len,
            });
        }
        let src_va = VirtAddr(seg.va.0 + offset);

        let prot = match rec.mode {
            AccessMode::ReadWrite => xemem_mem::PteFlags::rw_user(),
            AccessMode::ReadOnly => xemem_mem::PteFlags::ro_user(),
        };
        let record = AttachRecord {
            apid,
            segid: rec.segid,
            owner: rec.owner,
            offset,
            len,
            state: AttachState::Live,
        };

        if owner_slot == slot_idx {
            return self.attach_local(p, record, seg.pid, src_va, prot, at);
        }

        // 1. Route the attachment request to the owner (via the name
        //    server's segid→enclave map — `requires_ns_processing`).
        let path = self.route_path(slot_idx, rec.owner)?;
        let t1 = self.charge_hops(&path, MessageKind::GetPfnList, Some(rec.segid), at);
        let route_request = t1.duration_since(at);

        // A crash injected while the request was in flight lands here:
        // the owner (or the attacher) may now be dead, and the attach
        // fails cleanly before any state is installed.
        self.process_faults(t1);
        if !self.slots[owner_slot].alive || !self.slots[owner_slot].segs.contains_key(&rec.segid) {
            return Err(if self.slots[owner_slot].alive {
                XememError::UnknownSegid(rec.segid)
            } else {
                XememError::EnclaveDead(EnclaveRef(owner_slot))
            });
        }
        if !self.slots[slot_idx].alive {
            return Err(XememError::EnclaveDead(p.enclave));
        }

        // 2. The owner generates the PFN list with its local OS routines.
        let (list, mut serve) = self.serve_export(owner_slot, seg.pid, src_va, len)?;
        // Cross-socket attachments touch remote page tables and frames
        // (the overhead the paper's single-socket pinning avoids, §5.1).
        let cross_numa = self.zones[owner_slot] != self.zones[slot_idx];
        if cross_numa {
            serve = serve.scaled(self.cost.numa_remote_op_factor);
        }
        let serve_kind = if self.slots[owner_slot].kind.is_vm() {
            SpanKind::GuestServe
        } else {
            SpanKind::ServeWalk
        };
        let sctx = Ctx::seg(owner_slot, seg.pid.0, rec.segid.0);
        let t2 = self.tracer.charge(serve_kind, t1, serve, sctx);
        // Media surcharge for walking PTEs whose frames migrated off
        // local DRAM (zero — and traceless — for all-local segments).
        let by_tier = self.tier_window_pages(owner_slot, rec.segid, offset, len);
        let tier_walk = self.cost.tier_walk_surcharge(&by_tier);
        let t2 = self.tracer.charge(SpanKind::TierWalk, t2, tier_walk, sctx);
        let serve = t2.duration_since(t1);

        // 3. Route the (bulk) reply back.
        let reply_kind = MessageKind::PfnListReply {
            pages: list.pages(),
        };
        let back = reply_trimmed(&self.slots, &path, owner_slot, slot_idx);
        let t3 = self.charge_hops(&back, reply_kind, Some(rec.segid), t2);
        let route_reply = t3.duration_since(t2);

        // A crash injected while the reply was in flight: if the owner
        // died after serving, its frames are being retired — installing
        // the mapping now would resurrect a revoked segment, so the
        // attach fails instead. If the attacher died, there is no
        // process to map into.
        self.process_faults(t3);
        if !self.slots[owner_slot].alive {
            return Err(XememError::EnclaveDead(EnclaveRef(owner_slot)));
        }
        if !self.slots[slot_idx].alive {
            return Err(XememError::EnclaveDead(p.enclave));
        }

        // 4. Map locally with the attaching enclave's OS routines.
        let is_vm_attacher = self.slots[slot_idx].kind.is_vm();
        let (va, mut map) = self.install_attachment(slot_idx, p.pid, &list, prot)?;
        if cross_numa {
            map = map.scaled(self.cost.numa_remote_op_factor);
        }
        // VM attaches decompose exactly into the four breakdown
        // components — but only un-scaled: `scaled()` rounds per
        // component, so a cross-NUMA map is attributed as one leaf to
        // keep the sum bit-identical to the charged total.
        let mctx = Ctx::seg(slot_idx, p.pid.0, rec.segid.0);
        let breakdown = if is_vm_attacher && !cross_numa {
            self.last_vm_breakdown
        } else {
            None
        };
        let mapped = match breakdown {
            Some(b) => {
                let kinds = [
                    SpanKind::MapStructure,
                    SpanKind::MapBookkeep,
                    SpanKind::VmNotify,
                    SpanKind::GuestMap,
                ];
                let mut t = t3;
                for (k, d) in kinds.into_iter().zip(b.components()) {
                    t = self.tracer.charge(k, t, d, mctx);
                }
                t
            }
            None => self.tracer.charge(SpanKind::MapInstall, t3, map, mctx),
        };
        // Install surcharge for PTEs pointing at off-DRAM frames.
        let tier_map = self.cost.tier_map_surcharge(&by_tier);
        let end = self
            .tracer
            .charge(SpanKind::TierMap, mapped, tier_map, mctx);
        self.record_attachment(p, owner_slot, va, record);
        Ok(AttachOutcome {
            va,
            end,
            route_request,
            serve,
            route_reply,
            map: end.duration_since(t3),
        })
    }

    /// Local (single-enclave) attachment of the window `record` names:
    /// the conventions of the local OS apply (paper §4.2) — Linux uses
    /// page-faulting semantics, the LWK maps eagerly.
    fn attach_local(
        &mut self,
        p: ProcessRef,
        record: AttachRecord,
        src_pid: Pid,
        src_va: VirtAddr,
        prot: xemem_mem::PteFlags,
        at: SimTime,
    ) -> Result<AttachOutcome, XememError> {
        let slot_idx = p.enclave.0;
        let kernel = self.slots[slot_idx].kind.kernel_mut();
        let walked = kernel.export_walk(src_pid, src_va, record.len)?;
        let (serve, semantics, map_kind) = match kernel.kind() {
            // Page-faulting semantics: the PFN lookup happens per fault,
            // so the walk is not charged up front (its cost is folded
            // into the per-page fault service). Fig. 8(b).
            KernelKind::Fwk => (
                SimDuration::ZERO,
                AttachSemantics::Lazy,
                SpanKind::MmapReserve,
            ),
            KernelKind::Lwk => (walked.cost, AttachSemantics::Eager, SpanKind::MapInstall),
        };
        let mapped = kernel.attach_map(p.pid, &walked.value, semantics, prot)?;
        let (va, map) = (mapped.value, mapped.cost);
        let lctx = Ctx::seg(slot_idx, p.pid.0, record.segid.0);
        let t = self.tracer.charge(SpanKind::ServeWalk, at, serve, lctx);
        let t = self.tracer.charge(map_kind, t, map, lctx);
        // Tier surcharges for windows whose frames migrated off DRAM
        // (zero and traceless on the all-local fast path).
        let by_tier = self.tier_window_pages(slot_idx, record.segid, record.offset, record.len);
        let tier_walk = self.cost.tier_walk_surcharge(&by_tier);
        let t = self.tracer.charge(SpanKind::TierWalk, t, tier_walk, lctx);
        let tier_map = self.cost.tier_map_surcharge(&by_tier);
        let end = self.tracer.charge(SpanKind::TierMap, t, tier_map, lctx);
        self.record_attachment(p, slot_idx, va, record);
        Ok(AttachOutcome {
            va,
            end,
            route_request: SimDuration::ZERO,
            serve: serve + tier_walk,
            route_reply: SimDuration::ZERO,
            map: map + tier_map,
        })
    }

    /// Record a new live attachment on both sides: the attacher's record
    /// (clearing any earlier detach of the same base) and the
    /// exporter-side site the revocation protocol notifies.
    fn record_attachment(
        &mut self,
        p: ProcessRef,
        owner_slot: usize,
        va: VirtAddr,
        record: AttachRecord,
    ) {
        let slot = &mut self.slots[p.enclave.0];
        slot.attachments.insert((p.pid, va.0), record);
        slot.detached.remove(&(p.pid, va.0));
        self.attachers
            .entry((owner_slot, record.segid))
            .or_default()
            .push(AttachSite {
                slot: p.enclave.0,
                pid: p.pid,
                va: va.0,
            });
    }

    /// Owner-side PFN-list generation.
    fn serve_export(
        &mut self,
        owner_slot: usize,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<(PfnList, SimDuration), XememError> {
        match &mut self.slots[owner_slot].kind {
            EnclaveKind::Native(k) => {
                let walked = k.export_walk(pid, va, len)?;
                Ok((walked.value, walked.cost))
            }
            EnclaveKind::Vm(vmm) => {
                // Fig. 4(b): guest walks, hypercall, VMM translates
                // GPA→HPA per page.
                let walked = vmm.host_walk_guest_region(pid, va, len)?;
                Ok((walked.value, walked.cost))
            }
        }
    }

    /// Attacher-side mapping installation.
    fn install_attachment(
        &mut self,
        slot_idx: usize,
        pid: Pid,
        list: &PfnList,
        prot: xemem_mem::PteFlags,
    ) -> Result<(VirtAddr, SimDuration), XememError> {
        match &mut self.slots[slot_idx].kind {
            EnclaveKind::Native(k) => {
                let mapped = k.attach_map(pid, list, AttachSemantics::Eager, prot)?;
                Ok((mapped.value, mapped.cost))
            }
            EnclaveKind::Vm(vmm) => {
                // Fig. 4(a): hot-plug GPAs, update the memory map, notify
                // the guest, guest maps.
                let before = vmm.map_batches();
                let breakdown = vmm.guest_attach_prot(pid, list, prot)?;
                let after = vmm.map_batches();
                self.tracer
                    .count(Counter::GuestMapBatchesHeld, after.held - before.held);
                self.tracer
                    .count(Counter::GuestMapBatchesLinked, after.linked - before.linked);
                self.last_vm_breakdown = Some(breakdown);
                Ok((breakdown.va, breakdown.total))
            }
        }
    }

    /// Unmap an attachment (`xpmem_detach`). Purely local (paper §4.2),
    /// except for dropping the exporter-side loan refcount when the
    /// segment's frames are on loan from a dead exporter. A second
    /// detach of the same base fails cleanly with `AlreadyDetached`;
    /// detaching an attachment the reaper already unmapped is free
    /// bookkeeping.
    pub fn detach_at(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        self.process_faults(at);
        let slot_idx = p.enclave.0;
        let slot = live_slot(self.slots.get_mut(slot_idx), p.enclave)?;
        let Some(rec) = slot.attachments.get(&(p.pid, va.0)).copied() else {
            return Err(if slot.detached.contains(&(p.pid, va.0)) {
                XememError::AlreadyDetached(va.0)
            } else {
                XememError::Kernel(xemem_mem::KernelError::Mem(
                    xemem_mem::MemError::NoSuchRegion(va),
                ))
            });
        };
        if rec.state == AttachState::Reaped {
            // Already unmapped by the reaper; the detach just retires
            // the bookkeeping.
            slot.attachments.remove(&(p.pid, va.0));
            slot.detached.insert((p.pid, va.0));
            let bk = SimDuration::from_nanos(200);
            let ctx = Ctx::proc(slot_idx, p.pid.0);
            return Ok(self.tracer.charge(SpanKind::Bookkeeping, at, bk, ctx));
        }
        let cost = match &mut slot.kind {
            EnclaveKind::Native(k) => k.detach(p.pid, va)?.cost,
            EnclaveKind::Vm(vmm) => vmm.guest_detach(p.pid, va)?.cost,
        };
        let ctx = Ctx::seg(slot_idx, p.pid.0, rec.segid.0);
        let end = self.tracer.charge(SpanKind::Unmap, at, cost, ctx);
        self.drop_site(slot_idx, p.pid, va.0, rec);
        Ok(end)
    }

    // ------------------------------------------------------------------
    // Registration (paper §3.2)
    // ------------------------------------------------------------------

    fn register_all(&mut self) -> Result<(), XememError> {
        // The name-server enclave registers itself first (Fig. 3
        // "Register Domain" happens for every enclave).
        let ns_id = self.name_service.alloc_enclave_id();
        self.slots[self.ns_slot].id = Some(ns_id);
        self.slots[self.ns_slot].ns_via = None;
        self.id_to_slot.insert(ns_id, self.ns_slot);

        // Register remaining enclaves in an order where a path to the NS
        // always exists through already-registered neighbors: BFS out
        // from the NS slot over the topology tree.
        let order = self.bfs_from_ns();
        for idx in order {
            if idx == self.ns_slot {
                continue;
            }
            self.register_slot(idx)?;
        }
        Ok(())
    }

    fn bfs_from_ns(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.slots.len());
        let mut queue = std::collections::VecDeque::from([self.ns_slot]);
        let mut seen = vec![false; self.slots.len()];
        seen[self.ns_slot] = true;
        while let Some(cur) = queue.pop_front() {
            order.push(cur);
            let mut neighbors = self.slots[cur].children.clone();
            if let Some(parent) = self.slots[cur].parent {
                neighbors.push(parent);
            }
            for n in neighbors {
                if !seen[n] {
                    seen[n] = true;
                    queue.push_back(n);
                }
            }
        }
        order
    }

    fn register_slot(&mut self, idx: usize) -> Result<(), XememError> {
        self.clocked(SpanKind::Register, Ctx::enclave(idx), |sys, t| {
            sys.register_slot_inner(idx, t).map(|end| ((), end))
        })
    }

    fn register_slot_inner(&mut self, idx: usize, mut t: SimTime) -> Result<SimTime, XememError> {
        // (1) Discovery: broadcast on each channel; neighbors that know a
        // path to the name server respond (paper §3.2).
        let mut neighbors = self.slots[idx].children.clone();
        if let Some(parent) = self.slots[idx].parent {
            neighbors.insert(0, parent);
        }
        let mut via = None;
        for n in neighbors {
            t = self.discovery_hop(idx, n, MessageKind::NameServerQuery, t)?;
            let knows = n == self.ns_slot || self.slots[n].ns_via.is_some();
            if knows && via.is_none() {
                // The reply travels back over the same link.
                t = self.discovery_hop(n, idx, MessageKind::NameServerQueryReply, t)?;
                via = Some(n);
            }
        }
        let via = via.ok_or_else(|| {
            XememError::Topology(format!(
                "enclave {:?} cannot reach the name server",
                self.slots[idx].name
            ))
        })?;
        self.slots[idx].ns_via = Some(via);

        // (2) Request an enclave ID through the discovered channel; the
        // request is forwarded hop by hop to the name server.
        let path = self.path_to(idx, self.ns_slot)?;
        let t = self.charge_hops(&path, MessageKind::AllocEnclaveId, None, t);
        let new_id = self.name_service.alloc_enclave_id();

        // (3) The reply routes back; every hop on the way records which
        // neighbor leads to the new enclave.
        let back: Vec<usize> = path.iter().rev().copied().collect();
        let t = self.charge_hops(&back, MessageKind::EnclaveIdReply, None, t);
        for w in back.windows(2) {
            let (closer_to_ns, toward_new) = (w[0], w[1]);
            self.slots[closer_to_ns].routes.insert(new_id, toward_new);
        }
        self.slots[idx].id = Some(new_id);
        self.id_to_slot.insert(new_id, idx);
        Ok(t)
    }

    /// One registration-discovery message over the direct link `from →
    /// to`. Discovery never routes, so it skips the loss/duplication
    /// machinery of [`Self::charge_hops`]; its hop is traced all the same.
    fn discovery_hop(
        &self,
        from: usize,
        to: usize,
        kind: MessageKind,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        let (link, dir) = self
            .link_between(from, to)
            .ok_or_else(|| XememError::Topology("missing link".into()))?;
        let bytes = kind.wire_bytes();
        let end = self.send_link(link, at, bytes, dir, Ctx::enclave(to));
        let (src, dst) = (Ctx::enclave(from), Ctx::enclave(to));
        self.tracer.send_recv(at, end, src, dst, kind.code(), bytes);
        Ok(end)
    }

    // ------------------------------------------------------------------
    // Lane-aware scheduling (windowed PDES support)
    // ------------------------------------------------------------------

    /// The conservative PDES lookahead for this system's cost model: no
    /// operation can affect another enclave in less virtual time than
    /// this (see [`CostModel::pdes_lookahead`]).
    pub fn pdes_lookahead(&self) -> SimDuration {
        self.cost.pdes_lookahead()
    }

    /// Prune contended-resource calendars (core-0 IPI handler, per-slot
    /// IPI channels) up to `horizon`, under the promise that no future
    /// operation starts earlier. Behaviour-preserving — retired bookings
    /// are exactly those the acquisition scan would skip — and what keeps
    /// long chaos runs from O(n²) calendar scans.
    pub fn retire_resources_before(&mut self, horizon: SimTime) {
        self.core0.retire_before(horizon);
        for slot in &self.slots {
            if let Some(Link::Ipi(ch)) = &slot.parent_link {
                ch.retire_before(horizon);
            }
        }
    }

    /// [`Self::alloc_buffer`] on an explicit timeline: allocates in the
    /// process's kernel starting at `at` and returns `(va, end)` without
    /// touching the virtual clock. Frames the op on the detached
    /// timeline like the other `*_at` drivers expect.
    pub fn alloc_buffer_at(
        &mut self,
        p: ProcessRef,
        len: u64,
        at: SimTime,
    ) -> Result<(VirtAddr, SimTime), XememError> {
        self.process_faults(at);
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        let kind = SpanKind::AllocBuffer;
        self.framed(kind, ctx, Timeline::Detached, at, |sys, at| {
            let slot = live_slot(sys.slots.get_mut(p.enclave.0), p.enclave)?;
            slot_alloc_buffer(slot, &sys.tracer, p, len, at)
        })
    }

    /// Split the system into disjoint per-lane partitions for the PDES
    /// lane phase: partition `l` owns every slot whose index hashes to
    /// lane `l` (see [`xemem_sim::pdes::lane_of`]). The partitions share
    /// only the thread-safe tracer.
    pub fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        let lanes = lanes.max(1);
        let mut parts: Vec<LanePart<'_>> = (0..lanes)
            .map(|lane| LanePart {
                lane,
                tracer: &self.tracer,
                slots: Vec::new(),
            })
            .collect();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            parts[xemem_sim::pdes::lane_of(i as u64, lanes)]
                .slots
                .push((i, slot));
        }
        parts
    }
}

/// The slot of a live enclave: `BadEnclave` when `e` names no slot,
/// `EnclaveDead` when its enclave crashed or was destroyed.
fn live_slot(slot: Option<&mut Slot>, e: EnclaveRef) -> Result<&mut Slot, XememError> {
    let slot = slot.ok_or(XememError::BadEnclave(e))?;
    if !slot.alive {
        return Err(XememError::EnclaveDead(e));
    }
    Ok(slot)
}

/// Guard a data access: any overlap with a revoked (non-live)
/// attachment fails with `SourceGone` — never stale bytes.
fn slot_check_data_access(slot: &Slot, pid: Pid, va: VirtAddr, len: u64) -> Result<(), XememError> {
    for ((rpid, base), rec) in &slot.attachments {
        if *rpid == pid
            && rec.state != AttachState::Live
            && va.0 < base + rec.len
            && va.0 + len > *base
        {
            return Err(XememError::SourceGone);
        }
    }
    Ok(())
}

/// The live attachment of `pid` fully containing `[va, va+len)`, if
/// any, as `(attached base, record)` — the tier directory needs the
/// base to turn a process address into a segment offset. Ties (nested
/// windows over one range) resolve to the lowest base for determinism.
fn slot_find_live_attachment(
    slot: &Slot,
    pid: Pid,
    va: VirtAddr,
    len: u64,
) -> Option<(u64, AttachRecord)> {
    slot.attachments
        .iter()
        .filter(|((rpid, base), rec)| {
            *rpid == pid
                && rec.state == AttachState::Live
                && va.0 >= *base
                && va.0 + len <= *base + rec.len
        })
        .min_by_key(|((_, base), _)| *base)
        .map(|((_, base), rec)| (*base, *rec))
}

/// Advance a segment's access-counting window to cover `at`, closing
/// every elapsed window: a closed window at or above the hot threshold
/// extends each chunk's hot streak, one at or below the cold threshold
/// extends the cold streak, anything between clears both. Windows after
/// the first close with zero hits, so a long idle gap is O(1) — the
/// cold streak saturates rather than looping per window.
fn roll_windows(dir: &mut TierSeg, policy: &TierPolicy, at: SimTime) {
    let elapsed = at.duration_since(dir.window_start);
    if elapsed < policy.window {
        return;
    }
    let k = elapsed.as_nanos() / policy.window.as_nanos().max(1);
    for c in &mut dir.chunks {
        // Window 1 closes with the counted hits…
        if c.hits >= policy.hot_threshold {
            c.hot = c.hot.saturating_add(1);
            c.cold = 0;
        } else if c.hits <= policy.cold_threshold {
            c.cold = c.cold.saturating_add(1);
            c.hot = 0;
        } else {
            c.hot = 0;
            c.cold = 0;
        }
        c.hits = 0;
        // …windows 2..=k close empty (always at or below the cold
        // threshold).
        if k > 1 {
            c.cold = c.cold.saturating_add((k - 1).min(u32::MAX as u64) as u32);
            c.hot = 0;
        }
    }
    dir.window_start += policy.window.times(k);
}

/// True when `[va, va+len)` overlaps a live attachment of `pid` — used
/// only to attribute cross-enclave data-path bytes to the metrics
/// registry (the access-guard twin of [`slot_check_data_access`]).
fn slot_overlaps_live_attachment(slot: &Slot, pid: Pid, va: VirtAddr, len: u64) -> bool {
    slot.attachments.iter().any(|((rpid, base), rec)| {
        *rpid == pid
            && rec.state == AttachState::Live
            && va.0 < base + rec.len
            && va.0 + len > *base
    })
}

/// One lane's disjoint slice of a [`System`] for the PDES lane phase:
/// the slots whose index hashes to the lane, plus the thread-safe
/// tracer.
///
/// The ops exposed here deliberately mirror the *enclave-local* subset
/// of the system API — allocation, population and data access within a
/// single slot — and never touch the virtual clock, the fault injector,
/// routing, or another lane's slots. That containment is exactly what
/// makes concurrent lane execution equivalent to every sequential
/// interleaving; anything cross-enclave (make/get/attach/remove/search)
/// belongs on the barrier phase against the full [`System`].
///
/// Fault delivery happens at window starts and during barrier ops, never
/// here — so lane-phase state must not be a same-window fault target
/// (the PDES drivers keep workload actors off the injector's schedule or
/// quantize faults to window boundaries).
pub struct LanePart<'a> {
    lane: usize,
    tracer: &'a TraceHandle,
    slots: Vec<(usize, &'a mut Slot)>,
}

impl LanePart<'_> {
    /// The lane index this partition serves.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Whether this partition owns the given enclave's slot.
    pub fn owns(&self, e: EnclaveRef) -> bool {
        self.slots.iter().any(|(i, _)| *i == e.0)
    }

    fn slot_mut(&mut self, e: EnclaveRef) -> Option<&mut Slot> {
        self.slots
            .iter_mut()
            .find(|(i, _)| *i == e.0)
            .map(|(_, s)| &mut **s)
    }

    /// Lane-local [`System::alloc_buffer_at`] (faults are delivered at
    /// barriers, not here).
    pub fn alloc_buffer_at(
        &mut self,
        p: ProcessRef,
        len: u64,
        at: SimTime,
    ) -> Result<(VirtAddr, SimTime), XememError> {
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        let kind = SpanKind::AllocBuffer;
        self.framed(kind, ctx, Timeline::Detached, at, |lane, at| {
            let tracer = lane.tracer;
            let slot = live_slot(lane.slot_mut(p.enclave), p.enclave)?;
            slot_alloc_buffer(slot, tracer, p, len, at)
        })
    }

    /// Lane-local [`System::prepare_buffer`].
    pub fn prepare_buffer(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        len: u64,
    ) -> Result<(), XememError> {
        let slot = self
            .slot_mut(p.enclave)
            .ok_or(XememError::BadEnclave(p.enclave))?;
        slot.kind.kernel_mut().populate(p.pid, va, len)?;
        Ok(())
    }

    /// Lane-local write on an explicit timeline; returns the completion
    /// time. Same access guard and byte accounting as [`System::write`],
    /// but a flat-DRAM charge: no tier surcharge, no hit counting.
    pub fn write_at(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        data: &[u8],
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        self.access_at(p, va, Access::Write(data), at)
    }

    /// Lane-local read on an explicit timeline; returns the completion
    /// time. Same access guard and byte accounting as [`System::read`],
    /// but a flat-DRAM charge: no tier surcharge, no hit counting.
    pub fn read_at(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        out: &mut [u8],
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        self.access_at(p, va, Access::Read(out), at)
    }

    fn access_at(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        access: Access<'_>,
        at: SimTime,
    ) -> Result<SimTime, XememError> {
        let ctx = Ctx::proc(p.enclave.0, p.pid.0);
        let framed = self.framed(access.kinds().0, ctx, Timeline::Detached, at, |lane, at| {
            let tracer = lane.tracer;
            let slot = live_slot(lane.slot_mut(p.enclave), p.enclave)?;
            let end = slot_access(slot, tracer, p, va, access, at)?;
            Ok(((), end))
        });
        framed.map(|((), end)| end)
    }
}

impl Framed for LanePart<'_> {
    fn frame_tracer(&self) -> &TraceHandle {
        self.tracer
    }
}

/// One data access through a process's mappings.
enum Access<'d> {
    Read(&'d mut [u8]),
    Write(&'d [u8]),
}

impl Access<'_> {
    fn len(&self) -> u64 {
        match self {
            Access::Read(out) => out.len() as u64,
            Access::Write(data) => data.len() as u64,
        }
    }

    /// The op's span and the counter of bytes it moves through a live
    /// attachment.
    fn kinds(&self) -> (SpanKind, Counter) {
        match self {
            Access::Read(_) => (SpanKind::Read, Counter::BytesReadAttached),
            Access::Write(_) => (SpanKind::Write, Counter::BytesWrittenAttached),
        }
    }
}

/// Slot-local body of every buffer allocation — [`System::alloc_buffer`],
/// [`System::alloc_buffer_at`] and [`LanePart::alloc_buffer_at`]: the
/// process's kernel allocates and charges bookkeeping. Returns
/// `(va, end)`.
fn slot_alloc_buffer(
    slot: &mut Slot,
    tracer: &TraceHandle,
    p: ProcessRef,
    len: u64,
    at: SimTime,
) -> Result<(VirtAddr, SimTime), XememError> {
    let out = slot.kind.kernel_mut().alloc_buffer(p.pid, len)?;
    let ctx = Ctx::proc(p.enclave.0, p.pid.0);
    Ok((
        out.value,
        tracer.charge(SpanKind::Bookkeeping, at, out.cost, ctx),
    ))
}

/// Slot-local body of every read and write — [`System::read`],
/// [`System::write`], [`LanePart::read_at`] and [`LanePart::write_at`]:
/// the revoked-attachment guard, attached-byte accounting and the
/// kernel's flat-DRAM stream charge. Returns the end time.
fn slot_access(
    slot: &mut Slot,
    tracer: &TraceHandle,
    p: ProcessRef,
    va: VirtAddr,
    access: Access<'_>,
    at: SimTime,
) -> Result<SimTime, XememError> {
    let (len, counter) = (access.len(), access.kinds().1);
    slot_check_data_access(slot, p.pid, va, len)?;
    if tracer.is_enabled() && slot_overlaps_live_attachment(slot, p.pid, va, len) {
        tracer.count(counter, len);
    }
    let kernel = slot.kind.kernel_mut();
    let cost = match access {
        Access::Read(out) => kernel.read(p.pid, va, out)?.cost,
        Access::Write(data) => kernel.write(p.pid, va, data)?.cost,
    };
    let ctx = Ctx::proc(p.enclave.0, p.pid.0);
    Ok(tracer.charge(SpanKind::DramStream, at, cost, ctx))
}

impl xemem_sim::pdes::LaneShared for System {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        System::lane_parts(self, lanes)
    }

    /// Window maintenance: deliver faults due by the window start and
    /// retire contended-resource calendars up to it.
    fn on_window(&mut self, start: SimTime) {
        self.process_faults(start);
        self.retire_resources_before(start);
    }

    /// Causal stitch between PDES windows: the previous window's
    /// barrier completed at `barrier` and the engine resumes at
    /// `resume`. Both times are schedule-determined, so the edge is
    /// identical at any `(lanes, workers)`.
    fn on_barrier_resume(&mut self, barrier: SimTime, resume: SimTime) {
        self.tracer.edge(
            EdgeKind::WindowResume,
            barrier,
            resume,
            Ctx::NONE,
            Ctx::NONE,
        );
    }
}

fn requires_ns_processing(kind: MessageKind) -> bool {
    matches!(
        kind,
        MessageKind::AllocEnclaveId
            | MessageKind::AllocSegid
            | MessageKind::RemoveSegid
            | MessageKind::SearchSegid
            | MessageKind::GetPfnList
    )
}

/// Reply path for an attachment: reverse of the request path, but
/// starting/ending at host anchors for VM endpoints (the VMM-side costs
/// are charged by `host_walk_guest_region` / `guest_attach`).
fn reply_trimmed(
    slots: &[Slot],
    path: &[usize],
    owner_slot: usize,
    attacher_slot: usize,
) -> Vec<usize> {
    let mut back: Vec<usize> = path.iter().rev().copied().collect();
    if slots[owner_slot].kind.is_vm() && back.len() > 1 {
        back.remove(0);
    }
    if slots[attacher_slot].kind.is_vm() && back.len() > 1 {
        back.pop();
    }
    back
}

// ----------------------------------------------------------------------
// Builder
// ----------------------------------------------------------------------

enum NativeKind {
    LinuxMgmt,
    Kitten,
}

enum Spec {
    Native {
        name: String,
        kind: NativeKind,
        cores: u32,
        mem: u64,
        zone: u32,
        tiers: Vec<(MemTier, u64)>,
    },
    Vm {
        name: String,
        host: String,
        guest_ram: u64,
        map_kind: MemoryMapKind,
        guest: GuestOs,
        zone: u32,
    },
}

/// Builds a [`System`]: declare enclaves, then [`SystemBuilder::build`]
/// carves hardware partitions, boots kernels and VMs, wires channels and
/// runs the §3.2 registration protocol.
pub struct SystemBuilder {
    cost: CostModel,
    specs: Vec<Spec>,
    ns_name: Option<String>,
    explicit_node: Option<(u32, u64)>,
    per_channel_ipi: bool,
    numa_zones: u32,
    next_zone: u32,
    hugepage_attach: bool,
    fault_plan: Option<(FaultPlan, u64)>,
    tracer: TraceHandle,
    ns_shards: Option<(usize, usize)>,
    next_tiers: Vec<(MemTier, u64)>,
    tier_policy: TierPolicy,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// A builder with the paper-calibrated cost model.
    pub fn new() -> Self {
        SystemBuilder {
            cost: CostModel::default(),
            specs: Vec::new(),
            ns_name: None,
            explicit_node: None,
            per_channel_ipi: false,
            numa_zones: 1,
            next_zone: 0,
            hugepage_attach: false,
            fault_plan: None,
            tracer: TraceHandle::disabled(),
            ns_shards: None,
            next_tiers: Vec::new(),
            tier_policy: TierPolicy::disabled(),
        }
    }

    /// Give the *next* declared native enclave `bytes` of extra frame
    /// capacity on the given memory tier, on top of its DRAM partition.
    /// Segments export from DRAM and [`System::migrate_extent`] (or the
    /// armed policy) moves extents into reserved tiers. May be called
    /// once per tier per enclave.
    pub fn tier_reserve(mut self, tier: MemTier, bytes: u64) -> Self {
        self.next_tiers.push((tier, bytes));
        self
    }

    /// Arm the hot/cold migration policy. The default —
    /// [`TierPolicy::disabled`] — counts accesses but never moves a
    /// chunk, reproducing pre-tier results byte for byte.
    pub fn with_tier_policy(mut self, policy: TierPolicy) -> Self {
        self.tier_policy = policy;
        self
    }

    /// Run the name service sharded and replicated: the namespace is
    /// consistent-hashed across `shards` shards, each with `replicas`
    /// replica slots (the first is the leader). Replica sets are
    /// assigned round-robin starting at the name-server slot, so
    /// `shards * replicas` must not exceed the enclave count. The
    /// default (1, 1) is the paper's single name server.
    pub fn name_service_shards(mut self, shards: usize, replicas: usize) -> Self {
        self.ns_shards = Some((shards, replicas));
        self
    }

    /// Arm a deterministic fault plan: scheduled enclave crashes, process
    /// kills, name-server outages and message-loss/duplication windows,
    /// driven by an injector seeded with `seed`. Identical plans and
    /// seeds reproduce identical executions; faults are delivered as
    /// virtual time crosses their timestamps.
    pub fn with_fault_plan(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.fault_plan = Some((plan, seed));
        self
    }

    /// Ablation beyond the paper: FWK enclaves install eager attachments
    /// with 2 MiB leaves over contiguous, co-aligned PFN runs instead of
    /// one PTE per 4 KiB page (see `ablation_hugepages`).
    pub fn hugepage_attach(mut self) -> Self {
        self.hugepage_attach = true;
        self
    }

    /// Split the node's memory evenly across `zones` NUMA sockets.
    /// Subsequent enclave declarations choose their zone with
    /// [`Self::on_zone`]; the default is zone 0 (the paper pins every
    /// enclave to one socket — §5.1).
    pub fn numa_zones(mut self, zones: u32) -> Self {
        assert!(zones >= 1);
        self.numa_zones = zones;
        self
    }

    /// Place the *next* declared enclave's memory on the given zone.
    pub fn on_zone(mut self, zone: u32) -> Self {
        self.next_zone = zone;
        self
    }

    /// Ablation: give every IPI channel its own interrupt handler instead
    /// of serializing all channels on core 0 of the management enclave —
    /// the "more intelligent interrupt handling" the paper leaves as
    /// future work (§5.3).
    pub fn per_channel_ipi(mut self) -> Self {
        self.per_channel_ipi = true;
        self
    }

    /// Override the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a virtual-time tracer: every charged nanosecond in this
    /// system (and its kernels, including VM guests) is attributed to
    /// spans/metrics on the handle, its counters are the system's record
    /// of failure and teardown history, and its `SendRecv` edges are the
    /// record of protocol traffic, registration included (see
    /// [`crate::protocol`]). Defaults to a disabled handle.
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// Explicit node size (cores, total memory bytes). By default the
    /// node is sized to fit the declared enclaves plus 25% slack.
    pub fn with_node(mut self, cores: u32, mem_bytes: u64) -> Self {
        self.explicit_node = Some((cores, mem_bytes));
        self
    }

    /// Place the name server in the named enclave (default: the first
    /// declared enclave; the paper notes any enclave can host it).
    pub fn name_server_at(mut self, name: &str) -> Self {
        self.ns_name = Some(name.to_string());
        self
    }

    /// Declare the Linux management enclave (the topology root).
    pub fn linux_management(mut self, name: &str, cores: u32, mem: u64) -> Self {
        let zone = std::mem::take(&mut self.next_zone);
        let tiers = std::mem::take(&mut self.next_tiers);
        self.specs.push(Spec::Native {
            name: name.to_string(),
            kind: NativeKind::LinuxMgmt,
            cores,
            mem,
            zone,
            tiers,
        });
        self
    }

    /// Declare a Kitten co-kernel enclave (child of the management
    /// enclave over a Pisces IPI channel).
    pub fn kitten_cokernel(mut self, name: &str, cores: u32, mem: u64) -> Self {
        let zone = std::mem::take(&mut self.next_zone);
        let tiers = std::mem::take(&mut self.next_tiers);
        self.specs.push(Spec::Native {
            name: name.to_string(),
            kind: NativeKind::Kitten,
            cores,
            mem,
            zone,
            tiers,
        });
        self
    }

    /// Declare a Palacios VM enclave on the named host enclave.
    pub fn palacios_vm(
        mut self,
        name: &str,
        host: &str,
        guest_ram: u64,
        map_kind: MemoryMapKind,
        guest: GuestOs,
    ) -> Self {
        self.specs.push(Spec::Vm {
            name: name.to_string(),
            host: host.to_string(),
            guest_ram,
            map_kind,
            guest,
            zone: std::mem::take(&mut self.next_zone),
        });
        self
    }

    /// Assemble and boot the system.
    pub fn build(self) -> Result<System, XememError> {
        if self.specs.is_empty() {
            return Err(XememError::Topology("no enclaves declared".into()));
        }
        if !matches!(
            self.specs[0],
            Spec::Native {
                kind: NativeKind::LinuxMgmt,
                ..
            }
        ) {
            return Err(XememError::Topology(
                "the first enclave must be the Linux management enclave (topology root)".into(),
            ));
        }

        // Size the node.
        let mut total_mem = 0u64;
        let mut total_cores = 0u32;
        for spec in &self.specs {
            match spec {
                Spec::Native { cores, mem, .. } => {
                    total_cores += cores;
                    total_mem += mem;
                }
                Spec::Vm { guest_ram, .. } => {
                    total_cores += 1;
                    total_mem += guest_ram;
                }
            }
        }
        let (node_cores, node_mem) = self
            .explicit_node
            .unwrap_or((total_cores.max(1), total_mem + total_mem / 4 + (64 << 20)));
        if node_cores < total_cores || node_mem < total_mem {
            return Err(XememError::Topology(
                "node too small for declared enclaves".into(),
            ));
        }
        let tracer = self.tracer.clone();
        let frames = node_mem / PAGE_SIZE;
        // Split memory evenly across the configured NUMA zones.
        let per_zone = frames / self.numa_zones as u64;
        let mut resources = if self.numa_zones == 1 {
            NodeResources::new(node_cores, frames)
        } else {
            NodeResources::with_zones(
                node_cores,
                (0..self.numa_zones).map(|z| (z, per_zone)).collect(),
            )
        };
        // Tier reserves are carved from extra frame space appended after
        // the DRAM zones, so `frame_exists` covers them and tier ranges
        // never collide with any partition.
        let tier_frames_total: u64 = self
            .specs
            .iter()
            .filter_map(|s| match s {
                Spec::Native { tiers, .. } => {
                    Some(tiers.iter().map(|(_, b)| b / PAGE_SIZE).sum::<u64>())
                }
                Spec::Vm { .. } => None,
            })
            .sum();
        let mut tier_cursor = frames;
        let phys = PhysicalMemory::new(frames + tier_frames_total);
        let core0 = Core0Handler::new();

        let mut slots: Vec<Slot> = Vec::new();
        let mut zones: Vec<u32> = Vec::new();
        let mut names: FxHashMap<String, usize> = FxHashMap::default();
        for spec in &self.specs {
            match spec {
                Spec::Native {
                    name,
                    kind,
                    cores,
                    mem,
                    zone,
                    tiers,
                } => {
                    if names.contains_key(name) {
                        return Err(XememError::Topology(format!(
                            "duplicate enclave name {name:?}"
                        )));
                    }
                    let mut part = resources.carve(*cores, mem / PAGE_SIZE, *zone)?;
                    for (tier, bytes) in tiers {
                        let tf = bytes / PAGE_SIZE;
                        if tf == 0 {
                            return Err(XememError::Topology(format!(
                                "tier reserve on {tier} for enclave {name:?} is under one frame"
                            )));
                        }
                        part.alloc
                            .push_range(*tier, xemem_mem::Pfn(tier_cursor), tf);
                        tier_cursor += tf;
                    }
                    let phys_dyn: Arc<dyn xemem_mem::PhysAccess> = phys.clone();
                    let kernel: Box<dyn xemem_mem::MappingKernel> = match kind {
                        NativeKind::LinuxMgmt => {
                            let mut fwk = Fwk::new(self.cost.clone(), phys_dyn, part.alloc);
                            fwk.set_hugepage_attach(self.hugepage_attach);
                            fwk.set_tracer(tracer.clone());
                            Box::new(fwk)
                        }
                        NativeKind::Kitten => {
                            let mut k = Kitten::new(self.cost.clone(), phys_dyn, part.alloc);
                            k.set_tracer(tracer.clone());
                            Box::new(k)
                        }
                    };
                    let mut slot = Slot::new(name.clone(), EnclaveKind::Native(kernel));
                    if !slots.is_empty() {
                        // Native enclaves hang off the management root via
                        // Pisces IPI channels.
                        slot.parent = Some(0);
                        let handler = if self.per_channel_ipi {
                            Core0Handler::new()
                        } else {
                            core0.clone()
                        };
                        slot.parent_link =
                            Some(Link::Ipi(IpiChannel::new(self.cost.clone(), handler)));
                    }
                    let idx = slots.len();
                    if idx > 0 {
                        slots[0].children.push(idx);
                    }
                    names.insert(name.clone(), idx);
                    zones.push(*zone);
                    slots.push(slot);
                }
                Spec::Vm {
                    name,
                    host,
                    guest_ram,
                    map_kind,
                    guest,
                    zone,
                } => {
                    if names.contains_key(name) {
                        return Err(XememError::Topology(format!(
                            "duplicate enclave name {name:?}"
                        )));
                    }
                    let host_idx = *names.get(host).ok_or_else(|| {
                        XememError::Topology(format!(
                            "VM {name:?} references unknown host {host:?}"
                        ))
                    })?;
                    if slots[host_idx].kind.is_vm() {
                        return Err(XememError::Topology("nested VMs are not supported".into()));
                    }
                    // The VM's RAM is carved as its own partition (in the
                    // real system the host enclave donates the block; the
                    // frames are identical either way).
                    let mut part = resources.carve(1, guest_ram / PAGE_SIZE, *zone)?;
                    let phys_dyn: Arc<dyn xemem_mem::PhysAccess> = phys.clone();
                    let cost = self.cost.clone();
                    let guest_cost = self.cost.clone();
                    let guest_os = *guest;
                    let guest_tracer = tracer.clone();
                    let vmm = Vmm::launch(
                        cost,
                        phys_dyn,
                        &mut part.alloc,
                        *guest_ram,
                        *map_kind,
                        move |gp, ga| match guest_os {
                            GuestOs::Fwk => {
                                let mut f = Fwk::new(guest_cost.clone(), gp, ga);
                                f.set_tracer(guest_tracer.clone());
                                Box::new(f)
                            }
                            GuestOs::Lwk => {
                                let mut k = Kitten::new(guest_cost.clone(), gp, ga);
                                k.set_tracer(guest_tracer.clone());
                                Box::new(k)
                            }
                        },
                    )?;
                    let mut slot = Slot::new(name.clone(), EnclaveKind::Vm(Box::new(vmm)));
                    slot.parent = Some(host_idx);
                    slot.parent_link = Some(Link::Pci {
                        cost: self.cost.clone(),
                    });
                    let idx = slots.len();
                    slots[host_idx].children.push(idx);
                    names.insert(name.clone(), idx);
                    zones.push(*zone);
                    slots.push(slot);
                }
            }
        }

        let ns_slot = match &self.ns_name {
            Some(n) => *names.get(n).ok_or_else(|| {
                XememError::Topology(format!("unknown name-server enclave {n:?}"))
            })?,
            None => 0,
        };

        // Name-service layout: centralized by default (the paper's
        // single server), or consistent-hashed shards with replica sets
        // assigned round-robin from the name-server slot.
        let (n_shards, n_replicas) = self.ns_shards.unwrap_or((1, 1));
        if n_shards == 0 || n_replicas == 0 {
            return Err(XememError::Topology(
                "the name service needs at least one shard and one replica".into(),
            ));
        }
        if n_shards * n_replicas > slots.len() {
            return Err(XememError::Topology(format!(
                "name service wants {} replica slots ({n_shards} shards × {n_replicas} \
                 replicas) but only {} enclaves exist",
                n_shards * n_replicas,
                slots.len()
            )));
        }
        let name_service = if n_shards == 1 && n_replicas == 1 {
            NameService::centralized(ns_slot)
        } else {
            let sets = (0..n_shards)
                .map(|s| {
                    (0..n_replicas)
                        .map(|j| (ns_slot + s + j * n_shards) % slots.len())
                        .collect()
                })
                .collect();
            NameService::sharded(
                sets,
                SimDuration::from_nanos(self.cost.ns_replication_lag_ns),
                SimDuration::from_nanos(self.cost.ns_election_timeout_ns),
            )
        };

        // A malformed fault schedule is a construction error, not a
        // runtime surprise: validate against the real topology.
        if let Some((plan, _)) = &self.fault_plan {
            plan.validate(slots.len(), n_shards)
                .map_err(XememError::Topology)?;
        }
        let injector = self
            .fault_plan
            .map(|(plan, seed)| FaultInjector::new(plan, seed));
        let mut system = System {
            cost: self.cost,
            clock: Clock::new(),
            phys,
            slots,
            ns_slot,
            name_service,
            id_to_slot: FxHashMap::default(),
            next_apid: 0,
            core0,
            last_vm_breakdown: None,
            zones,
            injector,
            attachers: FxHashMap::default(),
            grants: FxHashMap::default(),
            loans: Vec::new(),
            crash_notices: Vec::new(),
            tier_policy: self.tier_policy,
            tier_dir: BTreeMap::new(),
            tracer,
        };
        system.register_all()?;
        Ok(system)
    }
}
